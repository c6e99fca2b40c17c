"""Exact linear algebra over a prime field F_p.

Immutable sparse matrices with integer entries mod p, stored by column,
rank by column echelon form over a pivot table keyed by leading (largest)
row index (computed once per matrix), and homology dimensions for
composable pairs of differentials.  Everything is integer arithmetic mod
p; no floating point and no normal-form machinery.

rank(after) clears ("twist", Chen-Kerber 2011) once self o after = 0 is
checked: self kills each reduced column of after, whose largest row is
its lead i, so column i of self lies in the span of self's lower-index
columns, and self is reduced without the columns at after's leads.
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

    __slots__ = ("modulus", "rows", "cols", "_columns", "_leads")

    def __init__(self, modulus: int, rows: int, cols: int,
                 columns: Optional[ColumnMap] = None):
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
                if not isinstance(v, int):
                    raise TypeError(f"entry ({r}, {c}) is {v!r}, not an int")
                v %= modulus
                if v:
                    kept[r] = v
            if kept:
                data[c] = kept
        self._columns = data
        self._leads: Optional[frozenset[int]] = None

    def items(self) -> Iterator[tuple[tuple[int, int], int]]:
        return iter(sorted(((r, c), v) for c, column in self._columns.items()
                           for r, v in column.items()))

    @property
    def nnz(self) -> int:
        return sum(map(len, self._columns.values()))

    def is_zero(self) -> bool:
        return not self._columns

    def compose(self, other: "SparseFpMatrix") -> "SparseFpMatrix":
        """Matrix product self * other (apply other first), column by
        column of other, summed under integer row keys."""
        if other.modulus != self.modulus:
            raise ValueError("cannot compose matrices over different primes")
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} o {other.rows}x{other.cols}")
        mine = self._columns
        out: dict[int, dict[int, int]] = {}
        for c, column in other._columns.items():
            acc = out[c] = {}  # the constructor keeps the sums nonzero mod p
            for k, w in column.items():
                if k in mine:
                    for r, v in mine[k].items():
                        acc[r] = acc.get(r, 0) + v * w
        return SparseFpMatrix(self.modulus, self.rows, other.cols, out)

    def rank(self, after: Optional["SparseFpMatrix"] = None) -> int:
        """Rank by column echelon form, computed once per matrix.

        Given the incoming differential after, self o after = 0 is checked
        on every call, and CompositionError raised otherwise; only then
        may the columns at after's pivot leads be skipped.
        """
        if after is not None and not self.compose(after).is_zero():
            raise CompositionError("self o after != 0: not a complex")
        return len(self._pivot_leads(after))

    def _pivot_leads(self, after: Optional[SparseFpMatrix]) -> frozenset[int]:
        """Leads of the pivots, memoised; rank() has checked after.

        Each column is reduced against a pivot table keyed by leading
        (largest) row index until it is zero or leads at a new index,
        where it becomes a pivot.  The leads depend only on the column
        space, so skipping the columns at after's leads, which lie in the
        span of the others, keeps them.
        """
        if self._leads is None:
            cleared = after._pivot_leads(None) if after is not None else ()
            p = self.modulus
            pivots: dict[int, dict[int, int]] = {}  # lead -> column, lead 1
            todo = (dict(v) for c, v in self._columns.items() if c not in cleared)
            for col in todo:
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
            self._leads = frozenset(pivots)
        return self._leads

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

    d_out.rank(d_in) verifies that d_out o d_in vanishes before it clears.
    """
    return d_out.cols - d_out.rank(d_in) - d_in.rank()
