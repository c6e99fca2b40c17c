"""Exact linear algebra over a prime field F_p.

Immutable sparse matrices with integer entries mod p, rank by column
echelon form over a pivot table keyed by leading row index (computed once
per matrix), and homology dimensions for composable pairs of
differentials.  Everything is integer arithmetic mod p; no floating point
and no normal-form machinery.
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


EntryMap = Mapping[tuple[int, int], int]


class SparseFpMatrix:
    """Immutable sparse matrix over F_p.

    Entries live in a dict keyed by (row, col); zeros are never stored.
    Matrices act on column vectors: an r x c matrix is a map F_p^c -> F_p^r.
    """

    __slots__ = ("modulus", "rows", "cols", "_entries", "_rank")

    def __init__(self, modulus: int, rows: int, cols: int,
                 entries: EntryMap = {}):
        if not _is_prime(modulus):
            raise ValueError(f"modulus {modulus!r} is not a prime")
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.modulus = modulus
        self.rows = rows
        self.cols = cols
        data: dict[tuple[int, int], int] = {}
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise IndexError(f"entry ({r}, {c}) outside {rows}x{cols}")
            if not isinstance(v, int):
                raise TypeError(f"entry ({r}, {c}) is {v!r}, not an int")
            v %= modulus
            if v:
                data[(r, c)] = v
        self._entries = data
        self._rank: Optional[int] = None

    def items(self) -> Iterator[tuple[tuple[int, int], int]]:
        return iter(sorted(self._entries.items()))

    @property
    def nnz(self) -> int:
        return len(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def compose(self, other: "SparseFpMatrix") -> "SparseFpMatrix":
        """Matrix product self * other (apply other first)."""
        if other.modulus != self.modulus:
            raise ValueError("cannot compose matrices over different primes")
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} o {other.rows}x{other.cols}")
        other_rows: dict[int, list[tuple[int, int]]] = {}
        for (r, c), v in other._entries.items():
            other_rows.setdefault(r, []).append((c, v))
        acc: dict[tuple[int, int], int] = {}  # reduced mod p by __init__
        for (r, k), v in self._entries.items():
            for c, w in other_rows.get(k, ()):
                key = (r, c)
                acc[key] = acc.get(key, 0) + v * w
        return SparseFpMatrix(self.modulus, self.rows, other.cols, acc)

    def rank(self) -> int:
        """Rank by column echelon form, computed once per matrix.

        Each column is reduced against a pivot table keyed by leading
        (largest) row index until it is zero or leads at a new index,
        where it becomes a pivot.  The number of pivots is the rank.
        """
        if self._rank is None:
            p = self.modulus
            columns: dict[int, dict[int, int]] = {}
            for (r, c), v in self._entries.items():
                columns.setdefault(c, {})[r] = v
            pivots: dict[int, dict[int, int]] = {}  # lead -> column, lead 1
            for col in columns.values():
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

    def kernel_dim(self) -> int:
        return self.cols - self.rank()

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparseFpMatrix)
                and other.modulus == self.modulus
                and other.rows == self.rows and other.cols == self.cols
                and other._entries == self._entries)

    def __hash__(self) -> int:
        return hash((self.modulus, self.rows, self.cols,
                     tuple(sorted(self._entries.items()))))

    def __repr__(self) -> str:
        return (f"SparseFpMatrix(p={self.modulus}, {self.rows}x{self.cols}, "
                f"nnz={self.nnz})")


class CompositionError(ValueError):
    """Raised when a would-be complex has d_out o d_in != 0."""


def homology_dim(d_in: SparseFpMatrix, d_out: SparseFpMatrix) -> int:
    """dim ker(d_out) - rank(d_in) for C_in --d_in--> C_mid --d_out--> C_out.

    The composite d_out o d_in is verified to vanish, not assumed.
    """
    if d_in.modulus != d_out.modulus:
        raise ValueError("differentials over different primes")
    if d_out.cols != d_in.rows:
        raise ValueError(
            f"middle dimension mismatch: d_in lands in {d_in.rows}, "
            f"d_out starts from {d_out.cols}")
    if not d_out.compose(d_in).is_zero():
        raise CompositionError("d_out o d_in != 0: not a complex")
    return d_out.kernel_dim() - d_in.rank()
