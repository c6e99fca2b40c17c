"""Exact linear algebra over a prime field F_p.

Immutable sparse matrices with integer entries mod p, stored by column,
rank by column echelon form over a pivot table keyed by leading (largest)
row index (computed once per matrix), and homology dimensions for
composable pairs of differentials.  Everything is integer arithmetic mod
p; no floating point and no normal-form machinery.

homology_dim checks d_out o d_in = 0 before it ranks either matrix.  The
check reads the integer sums of the product column by column (_products,
which compose also wraps into a matrix) and stops at the first sum that
is not 0 mod p; it builds no product matrix.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


ColumnMap = Mapping[int, Mapping[int, int]]  # {col: {row: value}}


class CompositionError(ValueError):
    """Raised when a would-be complex has d_out o d_in != 0."""


class SparseFpMatrix:
    """Immutable sparse matrix over F_p.

    Built from and stored as columns, {col: {row: value}}: each entry is
    range- and int-checked and reduced mod p, and zeros and empty columns
    are never stored.  Matrices act on column vectors: an r x c matrix is
    a map F_p^c -> F_p^r.
    """

    __slots__ = ("modulus", "rows", "cols", "_columns", "_rank")

    def __init__(self, modulus: int, rows: int, cols: int,
                 columns: Optional[ColumnMap] = None):
        if type(modulus) is not int:
            raise TypeError(f"modulus {modulus!r} is not an int")
        if not _is_prime(modulus):
            raise ValueError(f"modulus {modulus!r} is not a prime")
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.modulus = modulus
        self.rows = rows
        self.cols = cols
        data: dict[int, dict[int, int]] = {}
        for c, column in (columns or {}).items():
            kept = {}
            for r, v in column.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise IndexError(f"entry ({r}, {c}) outside {rows}x{cols}")
                if type(v) is not int:
                    raise TypeError(f"entry ({r}, {c}) is {v!r}, not an int")
                v %= modulus
                if v:
                    kept[r] = v
            if kept:
                data[c] = kept
        self._columns = data
        self._rank: Optional[int] = None

    def items(self) -> Iterator[tuple[tuple[int, int], int]]:
        return iter(sorted(((r, c), v) for c, column in self._columns.items()
                           for r, v in column.items()))

    @property
    def nnz(self) -> int:
        return sum(map(len, self._columns.values()))

    def compose(self, other: "SparseFpMatrix") -> "SparseFpMatrix":
        """Matrix product self * other (apply other first)."""
        return SparseFpMatrix(self.modulus, self.rows, other.cols,
                              dict(self._products(other)))

    def _products(self, other: "SparseFpMatrix"
                  ) -> Iterator[tuple[int, dict[int, int]]]:
        """(c, {row: integer sum}) for each stored column c of other: column
        c of self * other before reduction mod p."""
        if other.modulus != self.modulus:
            raise ValueError("cannot compose matrices over different primes")
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} o {other.rows}x{other.cols}")
        mine = self._columns
        for c, column in other._columns.items():
            acc: dict[int, int] = {}
            for k, w in column.items():
                if k in mine:
                    for r, v in mine[k].items():
                        acc[r] = acc.get(r, 0) + v * w
            yield c, acc

    def rank(self) -> int:
        """Rank, memoised: each column is reduced against the pivot table
        until it is zero or leads at a new index."""
        if self._rank is None:
            p = self.modulus
            pivots: dict[int, dict[int, int]] = {}  # lead -> column, lead 1
            for col in map(dict, self._columns.values()):
                while col:
                    lead = max(col)
                    pivot = pivots.get(lead)
                    if pivot is None:
                        inv = pow(col[lead], -1, p)
                        pivots[lead] = {r: v * inv % p for r, v in col.items()}
                        break
                    f = col[lead]
                    for r, v in pivot.items():
                        nv = (col.get(r, 0) - f * v) % p
                        if nv:
                            col[r] = nv
                        else:
                            del col[r]
            self._rank = len(pivots)
        return self._rank

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparseFpMatrix)
                and other.modulus == self.modulus
                and other.rows == self.rows and other.cols == self.cols
                and other._columns == self._columns)

    def __repr__(self) -> str:
        return (f"SparseFpMatrix(p={self.modulus}, {self.rows}x{self.cols}, "
                f"nnz={self.nnz})")


def homology_dim(d_in: SparseFpMatrix, d_out: SparseFpMatrix) -> int:
    """dim ker(d_out) - rank(d_in) for C_in --d_in--> C_mid --d_out--> C_out.

    CompositionError unless d_out o d_in = 0, checked before either matrix
    is ranked.
    """
    p = d_out.modulus
    if any(v % p for _, acc in d_out._products(d_in) for v in acc.values()):
        raise CompositionError("d_out o d_in != 0: not a complex")
    return d_out.cols - d_out.rank() - d_in.rank()
