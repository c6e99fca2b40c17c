"""The first sparse rank routine, kept as a reference oracle.

``markowitz_rank`` is sparse Gaussian elimination with a Markowitz-style
pivot rule: at every step it pivots on the scarcest live column, then on
the shortest row in it.  The quadratic column choice makes it slow on
large blocks, and it shares no code with the column-echelon rank of
``SparseFpMatrix.rank`` that it is compared with.
"""


def markowitz_rank(matrix) -> int:
    """Rank of a ``SparseFpMatrix``, read only through its public items."""
    p = matrix.modulus
    row_data: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for (r, c), v in matrix.items():
        row_data.setdefault(r, {})[c] = v
        col_rows.setdefault(c, set()).add(r)
    rank = 0
    while col_rows:
        c = min(col_rows, key=lambda j: (len(col_rows[j]), j))
        r = min(col_rows[c], key=lambda i: (len(row_data[i]), i))
        pivot_row = row_data.pop(r)
        for j in pivot_row:
            s = col_rows[j]
            s.discard(r)
            if not s:
                del col_rows[j]
        targets = list(col_rows.get(c, ()))
        if targets:
            inv = pow(pivot_row[c], -1, p)
            for r2 in targets:
                row2 = row_data[r2]
                f = (row2[c] * inv) % p
                for j, v in pivot_row.items():
                    nv = (row2.get(j, 0) - f * v) % p
                    if nv:
                        if j not in row2:
                            col_rows.setdefault(j, set()).add(r2)
                        row2[j] = nv
                    elif j in row2:
                        del row2[j]
                        s = col_rows[j]
                        s.discard(r2)
                        if not s:
                            del col_rows[j]
                if not row2:
                    del row_data[r2]
        rank += 1
    return rank
