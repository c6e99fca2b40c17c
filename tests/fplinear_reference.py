"""The first sparse rank routine, kept as a reference oracle.

``markowitz_rank`` is sparse Gaussian elimination with a Markowitz-style
pivot rule: at every step it pivots on the scarcest live column (lowest
index first among equals), then on the shortest row in it.  The columns
wait in a lazy heap of (count, column): a column is pushed again after
every step that changes its count, and an entry whose count is no longer
current is skipped when popped.  It shares no code with the
column-echelon rank of ``SparseFpMatrix.rank`` that it is compared with.
"""

import heapq


def markowitz_rank(matrix) -> int:
    """Rank of a ``SparseFpMatrix``, read only through its public items."""
    p = matrix.modulus
    row_data: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for (r, c), v in matrix.items():
        row_data.setdefault(r, {})[c] = v
        col_rows.setdefault(c, set()).add(r)
    heap = [(len(rows), c) for c, rows in col_rows.items()]
    heapq.heapify(heap)
    rank = 0
    while col_rows:
        count, c = heapq.heappop(heap)
        if len(col_rows.get(c, ())) != count:
            continue  # stale: the column changed or left since this push
        r = min(col_rows[c], key=lambda i: (len(row_data[i]), i))
        pivot_row = row_data.pop(r)
        touched = set(pivot_row)
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
        for j in touched:
            if j in col_rows:
                heapq.heappush(heap, (len(col_rows[j]), j))
        rank += 1
    return rank
