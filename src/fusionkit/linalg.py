"""Small matrices over the exact rationals, stored as integers, and one sparse exact rank.

A matrix keeps a tuple of rows of integer numerators ``num`` over one
positive common denominator ``den``. The pair is normalised so that ``den``
and all numerators have gcd 1 (a zero matrix has ``den == 1``); that form is
unique for each rational matrix, so equality and hashing go by value.
Products, sums, scaling, Kronecker products and the three structural
primitives work on the numerators with Python ints: ``block`` assembles
sparse blocks over one common denominator (``vstack``, its one-column case,
is the one stack), ``select`` takes a submatrix, and ``rref`` returns the
pivot columns and the nonzero rows of the reduced row echelon form.
``rref``, ``kernel`` and ``inverse`` run one fraction-free Gauss-Jordan
(Bareiss 1968), after which every pivot is one integer d and the reduced row
echelon form is the integer matrix over d; ``rank`` is ``sparse_rank``.
The positive-definiteness test is Sylvester's criterion by Bareiss
elimination without row swaps. Nothing is ever approximate: a float or a str,
as an entry or a ``scale`` factor, raises TypeError. ``data`` and
``m[i, j]`` hand out ``fractions.Fraction`` entries, built on first use.

Matrices with zero rows or zero columns are legal and behave as the empty
linear map; a zero-row matrix is the zero map into a zero-dimensional space,
whose kernel is everything.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from operator import add, mul, neg, sub
from typing import Iterable, Mapping, Sequence

from .errors import InternalError

Q = Fraction


def _exact(x) -> Fraction:
    """x as a Fraction; a float or a str is refused, since no entry here is ever approximate."""
    if isinstance(x, (float, str)):
        raise TypeError(f"{x!r} is not an exact rational")
    return Q(x)


class RationalMatrix:
    """Immutable-by-convention dense rational matrix: ``num / den``."""

    __slots__ = ("rows", "cols", "num", "den", "_data")

    def __init__(self, data: Sequence[Sequence], cols: int | None = None):
        entries = [[x if type(x) is int else _exact(x) for x in row] for row in data]
        rows = len(entries)
        if rows:
            widths = {len(row) for row in entries}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            width = widths.pop()
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with row data")
            cols = width
        elif cols is None:
            raise ValueError("a zero-row matrix needs an explicit column count")
        den = lcm(*(x.denominator for row in entries for x in row if type(x) is not int))
        num = tuple(
            tuple(x * den if type(x) is int else x.numerator * (den // x.denominator) for x in row)
            for row in entries
        )
        # each Fraction is in lowest terms, so num / den already is
        self._set(num, den, rows, cols)

    def _set(self, num, den, rows, cols) -> None:
        self.num = num
        self.den = den
        self.rows = rows
        self.cols = cols
        self._data = None

    @classmethod
    def _from_ints(cls, num, den: int, rows: int, cols: int) -> "RationalMatrix":
        """Wrap integer rows over a nonzero denominator, normalising the pair."""
        if den < 0:
            num = tuple(tuple(map(neg, row)) for row in num)
            den = -den
        if den != 1:
            g = gcd(den, *chain.from_iterable(num))
            if g != 1:
                num = tuple(tuple(x // g for x in row) for row in num)
                den //= g
        m = cls.__new__(cls)
        m._set(num, den, rows, cols)
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls._from_ints(((0,) * cols,) * rows, 1, rows, cols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        num = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return cls._from_ints(num, 1, n, n)

    @classmethod
    def block(cls, heights: Sequence[int], widths: Sequence[int],
              blocks: Mapping[tuple[int, int], "RationalMatrix"]) -> "RationalMatrix":
        """Block matrix whose block (r, c) is heights[r] x widths[c]; absent blocks are zero."""
        for (r, c), m in blocks.items():
            if (m.rows, m.cols) != (heights[r], widths[c]):
                raise ValueError(f"block {(r, c)} is {m.rows}x{m.cols}, "
                                 f"not {heights[r]}x{widths[c]}")
        den = lcm(*(m.den for m in blocks.values()))
        num = []
        for r, h in enumerate(heights):
            parts = []
            for c, w in enumerate(widths):
                m = blocks.get((r, c))
                if m is None:
                    parts.append(((0,) * w,) * h)
                else:
                    f = den // m.den
                    parts.append(m.num if f == 1 else
                                 tuple(tuple(f * x for x in row) for row in m.num))
            if len(parts) == 1:
                num.extend(parts[0])
            else:
                num.extend(tuple(chain.from_iterable(p[i] for p in parts)) for i in range(h))
        return cls._from_ints(tuple(num), den, len(num), sum(widths))

    @classmethod
    def vstack(cls, mats: Iterable["RationalMatrix"], cols: int | None = None) -> "RationalMatrix":
        mats = list(mats)
        if cols is None:
            if not mats:
                raise ValueError("vstack of nothing needs an explicit column count")
            cols = mats[0].cols
        return cls.block([m.rows for m in mats], [cols], {(r, 0): m for r, m in enumerate(mats)})

    @property
    def data(self) -> tuple[tuple[Q, ...], ...]:
        got = self._data
        if got is None:
            den = self.den
            got = tuple(tuple(Q(x, den) for x in row) for row in self.num)
            self._data = got
        return got

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, self.num))

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols}, {[[str(x) for x in r] for r in self.data]})"

    def __getitem__(self, key) -> Q:
        i, j = key
        return Q(self.num[i][j], self.den)

    def select(self, rows: Iterable[int], cols: Iterable[int]) -> "RationalMatrix":
        """The submatrix on the given row and column indices, in the order given."""
        cols = list(cols)
        num = tuple(tuple(self.num[i][j] for j in cols) for i in rows)
        return RationalMatrix._from_ints(num, self.den, len(num), len(cols))

    def transpose(self) -> "RationalMatrix":
        num = tuple(zip(*self.num)) if self.rows else ((),) * self.cols
        return RationalMatrix._from_ints(num, self.den, self.cols, self.rows)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.rows == 0 or self.cols == 0 or other.cols == 0:
            return RationalMatrix.zeros(self.rows, other.cols)
        ot = tuple(zip(*other.num))
        num = tuple(tuple(sum(map(mul, row, col)) for col in ot) for row in self.num)
        return RationalMatrix._from_ints(num, self.den * other.den, self.rows, other.cols)

    def _combine(self, other: "RationalMatrix", op) -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        if fa == 1 and fb == 1:
            num = tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(self.num, other.num))
        else:
            num = tuple(
                tuple(op(fa * a, fb * b) for a, b in zip(r1, r2))
                for r1, r2 in zip(self.num, other.num)
            )
        return RationalMatrix._from_ints(num, den, self.rows, self.cols)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, add)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, sub)

    def __neg__(self) -> "RationalMatrix":
        return self.scale(-1)

    def scale(self, s) -> "RationalMatrix":
        s = _exact(s)
        a = s.numerator
        num = tuple(tuple(a * x for x in row) for row in self.num)
        return RationalMatrix._from_ints(num, self.den * s.denominator if a else 1, self.rows, self.cols)

    def kron(self, other: "RationalMatrix") -> "RationalMatrix":
        num = tuple(
            tuple(a * b for a in row_a for b in row_b)
            for row_a in self.num
            for row_b in other.num
        )
        return RationalMatrix._from_ints(
            num, self.den * other.den, self.rows * other.rows, self.cols * other.cols
        )

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def rank(self) -> int:
        """The rank of the numerators, by ``sparse_rank``."""
        return sparse_rank([{j: x for j, x in enumerate(row) if x} for row in self.num])

    def rref(self) -> tuple[list[int], "RationalMatrix"]:
        """Pivot columns and the nonzero rows of the reduced row echelon form.

        The pivots are the first-wins independent columns, and column s equals
        the pivot columns combined with the coefficients in column s of the rows.
        """
        m, pivots, d = _gauss_jordan([list(row) for row in self.num], self.cols)
        r = len(pivots)
        return pivots, RationalMatrix._from_ints(tuple(map(tuple, m[:r])), d, r, self.cols)

    def is_positive_definite(self) -> bool:
        """Sylvester's criterion for a symmetric matrix: every leading principal minor is positive.

        Bareiss elimination without row swaps leaves the k-th leading minor
        (of the numerators) as the k-th pivot.
        """
        if self.rows != self.cols:
            raise ValueError("only square matrices can be positive definite")
        m = [list(row) for row in self.num]
        prev = 1
        for c, prow in enumerate(m):
            p = prow[c]
            if p <= 0:
                return False
            for row in m[c + 1:]:
                row[c + 1:] = _bareiss_step(row[c + 1:], prow[c + 1:], p, row[c], prev)
            prev = p
        return True

    def kernel(self) -> "RationalMatrix":
        """Basis of the right kernel, one column per free variable."""
        m, pivots, d = _gauss_jordan([list(row) for row in self.num], self.cols)
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        # column for free f: x_f = 1 and x_pc = -rref[r][f] = -m[r][f] / d
        out = [[0] * len(free) for _ in range(self.cols)]
        for k, f in enumerate(free):
            out[f][k] = d
            for r, pc in enumerate(pivots):
                out[pc][k] = -m[r][f]
        return RationalMatrix._from_ints(tuple(map(tuple, out)), d, self.cols, len(free))

    def inverse(self) -> "RationalMatrix":
        if self.rows != self.cols:
            raise ValueError("only square matrices invert")
        n = self.rows
        aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(self.num)]
        m, pivots, d = _gauss_jordan(aug, n)
        if pivots != list(range(n)):
            raise ValueError("singular matrix")
        # (num / den)^-1 = den * num^-1 and num^-1 is the right half over d
        den = self.den
        num = tuple(tuple(den * x for x in row[n:]) for row in m)
        return RationalMatrix._from_ints(num, d, n, n)


def _bareiss_step(row: list[int], prow: list[int], p: int, f: int, prev: int) -> list[int]:
    """(p * row - f * prow) / prev; Sylvester's identity makes the division exact."""
    if prev == 1:
        return [p * a - f * b for a, b in zip(row, prow)]
    out = []
    for a, b in zip(row, prow):
        q, rem = divmod(p * a - f * b, prev)
        if rem:
            raise InternalError(f"inexact Bareiss division by {prev}")
        out.append(q)
    return out


def sparse_rank(rows: Iterable[Mapping[int, int]]) -> int:
    """The rank of integer rows given as {column: nonzero entry} dicts, left unmodified: the
    live row with the fewest entries pivots on its column c with the fewest live rows, and each
    other row holding c becomes p * row - f * prow over its gcd. Exact integer arithmetic."""
    live = {i: row for i, row in enumerate(rows) if row}
    holders = defaultdict(set)  # column -> the live rows with an entry there
    for i, row in live.items():
        for j in row:
            holders[j].add(i)
    queue = [(len(row), i) for i, row in live.items()]  # an entry is stale once its row changes
    heapify(queue)
    rank = 0
    while queue:
        n, k = heappop(queue)
        if len(prow := live.get(k, ())) != n:
            continue
        del live[k]
        for j in prow:
            holders[j].discard(k)
        c = min(prow, key=lambda j: len(holders[j]))
        p, rank = prow[c], rank + 1
        for i in holders.pop(c):
            f, new = live[i][c], {j: p * x for j, x in live[i].items()}
            for j, x in prow.items():  # only prow's columns change, c to 0
                new[j] = new.get(j, 0) - f * x
            g = gcd(*new.values())
            live[i] = new = {j: x // g for j, x in new.items() if x} if g else {}
            for j in prow:
                (holders[j].add if j in new else holders[j].discard)(i)
            if new:  # an empty row is dependent and never pivots
                heappush(queue, (len(new), i))
    return rank


def _gauss_jordan(m: list[list[int]], pivot_cols: int) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan on integer rows, pivoting in the first pivot_cols columns.

    Returns the rows, the pivot columns and the common pivot value d: every
    pivot ends equal to d, so the reduced row echelon form is m / d.
    """
    rows = len(m)
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(pivot_cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(rows):
            if i != r:
                m[i] = _bareiss_step(m[i], prow, p, m[i][c], prev)
        pivots.append(c)
        prev = p
        r += 1
    return m, pivots, prev
