"""Cartan data, roots, weights and the finite Weyl group.

Weights are plain integer tuples in fundamental-weight coordinates, so the
pairing ``<lam, alpha_j^vee>`` is just ``lam[j]`` and the simple root
``alpha_i`` is column ``i`` of the stored Cartan matrix. The bilinear form is
exact rational, stored as integers over one denominator and normalized so the
highest root theta has squared length 2. Everything built here is immutable
after construction and safe to share, and memos key on the shared record.
"""

from __future__ import annotations

import math
import re
import threading
from collections.abc import Callable
from fractions import Fraction
from operator import add, mul, neg, sub
from typing import NamedTuple, TypeVar

from .errors import CapExceededError, InternalError, PreconditionError, UnsupportedTypeError
from .linalg import RationalMatrix

Weight = tuple[int, ...]

WEYL_ORDER_CAP = 2_000_000  # weyl_elements refuses to list a larger W

_EXCEPTIONAL_RANKS = {"E": (6, 7, 8), "F": (4,), "G": (2,)}
_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


class CartanType(NamedTuple("CartanType", [("series", str), ("rank", int)])):
    """A finite simple type; ``__new__`` refuses any other, and ``_make`` and
    ``_replace`` go through it.
    """

    __slots__ = ()

    def __new__(cls, series: str, rank: int):
        if series not in _MIN_RANK and series not in _EXCEPTIONAL_RANKS:
            raise UnsupportedTypeError(f"unknown series {series!r}")
        if series in _EXCEPTIONAL_RANKS:
            if rank not in _EXCEPTIONAL_RANKS[series]:
                raise UnsupportedTypeError(f"{series}{rank} is not a finite type")
        elif rank < _MIN_RANK[series]:
            raise UnsupportedTypeError(f"{series} requires rank >= {_MIN_RANK[series]}")
        return super().__new__(cls, series, rank)

    @classmethod
    def _make(cls, values):
        return cls(*values)

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


def parse_cartan_type(text: str) -> CartanType:
    """Parse strings like "A2", "B3", "G2"."""
    m = re.fullmatch(r"([A-Ga-g])([0-9]+)", text.strip())
    if not m:
        raise UnsupportedTypeError(f"cannot parse Cartan type {text!r}")
    return CartanType(m.group(1).upper(), int(m.group(2)))


# -- weight tuple helpers ----------------------------------------------------

def wadd(a: Weight, b: Weight) -> Weight:
    return tuple(map(add, a, b))


def wsub(a: Weight, b: Weight) -> Weight:
    return tuple(map(sub, a, b))


def wneg(a: Weight) -> Weight:
    return tuple(map(neg, a))


def wscale(c: int, a: Weight) -> Weight:
    return tuple(c * x for x in a)


def is_dominant(w: Weight) -> bool:
    return not w or min(w) >= 0


def require_dominant(w: Weight, name: str = "") -> Weight:
    """w as a tuple, or PreconditionError naming it, and the argument ``name`` if given."""
    w = tuple(w)
    if not is_dominant(w):
        raise PreconditionError(f"{name} = {w} is not dominant" if name else f"{w} is not dominant")
    return w


def require_rank(rs: RootSystem, w: Weight, name: str = "") -> Weight:
    """w as a tuple, or PreconditionError naming it when its length is not the rank of rs."""
    w = tuple(w)
    if len(w) != rs.rank:
        raise PreconditionError(f"{name or 'weight'} = {w} needs {rs.rank} coordinates for {rs}")
    return w


def dominant_weights_within(rank: int, fits: Callable[[Weight], bool]) -> list[Weight]:
    """Every dominant weight w with fits(w), sorted, for a ``fits`` that holds below every
    weight it holds at: a coordinate grows while the weight padded with zeros still fits."""
    out: list[Weight] = []

    def rec(prefix: Weight):
        if len(prefix) == rank:
            out.append(prefix)
            return
        pad, c = (0,) * (rank - len(prefix) - 1), 0
        while fits(prefix + (c,) + pad):
            rec(prefix + (c,))
            c += 1

    rec(())
    return out


def apply_matrix(m: tuple[tuple[int, ...], ...], w: Weight) -> Weight:
    return tuple([sum(map(mul, row, w)) for row in m])


def _reflect_rows(simple, i: int, m):
    """r_i m: row j of m loses simple[i][j] times row i; the other rows are shared with m."""
    rows, top = list(m), m[i]
    for j, c in enumerate(simple[i]):
        if c:
            rows[j] = tuple([x - c * y for x, y in zip(m[j], top)])
    return tuple(rows)


def _fold(simple_roots, x: Weight, skip: int | None = None) -> tuple[Weight, int]:
    """Reflect x at its first negative coordinate but ``skip`` until none: (point, reflections).
    One list is reflected in place, and the scan restarts from the front after each step."""
    x, steps, i, n = list(x), 0, 0, len(x)
    while i < n:
        c = x[i]
        if c < 0 and i != skip:
            for j, b in enumerate(simple_roots[i]):
                if b:
                    x[j] -= c * b
            steps, i = steps + 1, 0
        else:
            i += 1
    return tuple(x), steps


# -- Dynkin diagram data -----------------------------------------------------

def _dynkin(series: str, rank: int):
    """Edges of the Dynkin diagram plus half squared lengths d_i = (a_i,a_i)/2.

    Lengths are normalized so long roots have d = 1; theta is always long, so
    (theta, theta) = 2 comes out automatically.
    """
    edges = [(i, i + 1) for i in range(rank - 1)]
    d = [Fraction(1)] * rank
    if series == "B":
        d[-1] = Fraction(1, 2)
    elif series == "C":
        d = [Fraction(1, 2)] * (rank - 1) + [Fraction(1)]
    elif series == "D":
        edges = [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
    elif series == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        edges = list(zip(chain, chain[1:])) + [(1, 3)]
    elif series == "F":
        d = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 2)]
    elif series == "G":
        d = [Fraction(1), Fraction(1, 3)]
    return edges, d


class RootSystem:
    """Combinatorial skeleton of a finite simple Lie algebra.

    ``cartan_matrix`` is oriented so its columns are the simple roots in
    fundamental-weight coordinates. ``cartan_inverse_num`` is the inverse
    Cartan matrix times its common denominator ``cartan_inverse_den``, so
    simple-root coordinates are integer sums over one integer divisor; in
    the same way ``form_num`` over ``form_den`` is the Gram matrix
    (lam_i, lam_j) of the fundamental weights. ``root_functionals`` holds
    form_den (., alpha) per positive root and ``weyl_denominator`` the
    product of form_den (rho, alpha), so Weyl dimensions and Freudenthal
    run in integers. Every field is an integer or a tuple of them.
    The fields are slots, not tuple fields, because the hot loops read them:
    a slot read costs about a third of a NamedTuple field read.
    """

    cartan_type: CartanType
    cartan_matrix: tuple[tuple[int, ...], ...]
    cartan_inverse_num: tuple[tuple[int, ...], ...]
    cartan_inverse_den: int
    simple_roots: tuple[Weight, ...]
    form_num: tuple[tuple[int, ...], ...]
    form_den: int
    positive_roots: tuple[Weight, ...]
    root_functionals: tuple[tuple[int, ...], ...]
    weyl_denominator: int
    theta: Weight
    theta_path: tuple[int, ...]  # simple indices; every partial sum is a root
    marks: tuple[int, ...]
    comarks: tuple[int, ...]
    rho: Weight
    dual_coxeter: int
    dual_permutation: tuple[int, ...]
    weyl_order: int

    __slots__ = tuple(__annotations__)  # one slot per field above

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields[name])

    @property
    def rank(self) -> int:
        return self.cartan_type.rank

    def __str__(self) -> str:
        return str(self.cartan_type)


def _close_positive_roots(simple: list[Weight], rank: int):
    """Height-by-height closure of the simple roots under root addition."""
    alpha_coords: dict[Weight, tuple[int, ...]] = {}
    parent: dict[Weight, tuple[Weight, int]] = {}
    level = []
    for i, a in enumerate(simple):
        alpha_coords[a] = tuple(1 if j == i else 0 for j in range(rank))
        level.append(a)
    ordered = list(level)
    while level:
        nxt = []
        for beta in level:
            for i in range(rank):
                down = 0
                cur = wsub(beta, simple[i])
                while cur in alpha_coords:
                    down += 1
                    cur = wsub(cur, simple[i])
                if down - beta[i] > 0:  # string continues upward
                    gamma = wadd(beta, simple[i])
                    if gamma not in alpha_coords:
                        ac = list(alpha_coords[beta])
                        ac[i] += 1
                        alpha_coords[gamma] = tuple(ac)
                        parent[gamma] = (beta, i)
                        nxt.append(gamma)
                        ordered.append(gamma)
        level = nxt
    ordered.sort(key=lambda r: (sum(alpha_coords[r]), r))
    return ordered, alpha_coords, parent


T = TypeVar("T")
_MEMO_LOCK = threading.Lock()


def shared(memo: dict, key, build: Callable[[], T]) -> T:
    """memo[key], or ``build()`` run outside the one lock and published under it; threads
    that race on one key all get the first object published. Every fusionkit memo uses it; the
    hottest callers return ``memo.get(key)`` first, so a hit builds no closure."""
    got = memo.get(key)
    if got is None:
        got = build()
        with _MEMO_LOCK:
            got = memo.setdefault(key, got)
    return got


_ROOT_SYSTEM_MEMO: dict[CartanType, RootSystem] = {}
_WEYL_MEMO: dict[RootSystem, list[tuple[tuple[tuple[int, ...], ...], int]]] = {}
_CURRENT_MEMO: dict[tuple[RootSystem, int, Weight], tuple[Weight, ...]] = {}


def build_root_system(t: CartanType | str) -> RootSystem:
    """The full root datum of a supported Cartan type, shared per type."""
    if isinstance(t, str):
        t = parse_cartan_type(t)
    return shared(_ROOT_SYSTEM_MEMO, t, lambda: _root_system(t))


def _root_system(t: CartanType) -> RootSystem:
    rank = t.rank
    edges, d = _dynkin(t.series, rank)
    pair_form = [[Fraction(0)] * rank for _ in range(rank)]
    for i in range(rank):
        pair_form[i][i] = 2 * d[i]
    for i, j in edges:
        v = -max(d[i], d[j])
        pair_form[i][j] = v
        pair_form[j][i] = v
    # M[i][j] = <alpha_j, alpha_i^vee> = (alpha_i, alpha_j)/d_i; columns are simple roots
    cartan = []
    for i in range(rank):
        row = []
        for j in range(rank):
            q = pair_form[i][j] / d[i]
            if q.denominator != 1:
                raise InternalError(f"Cartan entry ({i}, {j}) of {t} is {q}, not an integer")
            row.append(int(q))
        cartan.append(tuple(row))
    cartan = tuple(cartan)
    simple = [tuple(cartan[j][i] for j in range(rank)) for i in range(rank)]

    minv = RationalMatrix(cartan).inverse()
    # the form G solves G @ M = diag(d), i.e. (lam_i, alpha_j) = d_j delta_ij
    sym = tuple(tuple(d[i] * minv[i, j] for j in range(rank)) for i in range(rank))
    if any(sym[i][j] != sym[j][i] for i in range(rank) for j in range(rank)):
        raise InternalError(f"the form of {t} is not symmetric")
    form_den = math.lcm(*(x.denominator for row in sym for x in row))
    form_num = tuple(tuple(int(x * form_den) for x in row) for row in sym)

    positive, alpha_coords, parent = _close_positive_roots(simple, rank)
    heights = {r: sum(alpha_coords[r]) for r in positive}
    max_h = max(heights.values())
    tops = [r for r in positive if heights[r] == max_h]
    if len(tops) != 1:
        raise InternalError(f"{t} has {len(tops)} roots of maximal height, not one")
    theta = tops[0]
    marks = alpha_coords[theta]
    comarks = []
    for i in range(rank):
        c = marks[i] * d[i]
        if c.denominator != 1:
            raise InternalError(f"comark {i} of {t} is {c}, not an integer")
        comarks.append(int(c))
    # theta dominates every root in the partial order
    for r in positive:
        if any(m < a for m, a in zip(marks, alpha_coords[r])):
            raise InternalError(f"the highest root of {t} does not dominate {r}")

    path = []
    node = theta
    while node in parent:
        node, i = parent[node]
        path.append(i)
    first = next(i for i, a in enumerate(simple) if a == node)
    path.append(first)
    path.reverse()

    rho = (1,) * rank
    x, steps = _fold(simple, wneg(rho))
    if x != rho or steps != len(positive):
        raise InternalError(f"folding -rho of {t} gave {x} after {steps} reflections")
    # -w0 omega_i = omega_sigma(i) is the one dominant point of the orbit of -omega_i
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    images = [_fold(simple, wneg(omega))[0] for omega in units]
    if any(image not in units for image in images):
        raise InternalError(f"-w0 sends the fundamental weights of {t} to {images}")
    sigma = tuple(map(units.index, images))
    if any(sigma[sigma[i]] != i for i in range(rank)):
        raise InternalError(f"-w0 on the simple roots of {t} is not an involution: {sigma}")

    funcs = tuple(tuple(sum(map(mul, row, alpha)) for row in form_num) for alpha in positive)
    rs = RootSystem(
        cartan_type=t,
        cartan_matrix=cartan,
        cartan_inverse_num=minv.num,
        cartan_inverse_den=minv.den,
        simple_roots=tuple(simple),
        form_num=form_num,
        form_den=form_den,
        positive_roots=tuple(positive),
        root_functionals=funcs,
        weyl_denominator=math.prod(sum(map(mul, f, rho)) for f in funcs),
        theta=theta,
        theta_path=tuple(path),
        marks=tuple(marks),
        comarks=tuple(comarks),
        rho=rho,
        dual_coxeter=1 + sum(comarks),
        dual_permutation=sigma,
        # r! a_1...a_r |P/Q|, and |P/Q| = 1 + #{j : a_j = 1} (Bourbaki VI.2.3-4)
        weyl_order=math.factorial(rank) * math.prod(marks) * (1 + marks.count(1)),
    )
    if form(rs, theta, theta) != 2:
        raise InternalError(f"(theta, theta) = {form(rs, theta, theta)} in {t}, not 2")
    return rs


# -- operations ---------------------------------------------------------------

def pairing(rs: RootSystem, lam: Weight, j: int) -> int:
    """<lam, alpha_j^vee>; coordinate-reading in the fundamental basis."""
    if not 0 <= j < rs.rank:
        raise PreconditionError(f"simple root index {j} out of range for {rs}")
    return require_rank(rs, lam, "lam")[j]


def form(rs: RootSystem, lam: Weight, mu: Weight) -> Fraction:
    """Symmetric bilinear form with (theta, theta) = 2."""
    lam, mu = require_rank(rs, lam), require_rank(rs, mu)
    return Fraction(sum(a * sum(map(mul, row, mu)) for a, row in zip(lam, rs.form_num) if a),
                    rs.form_den)


def root_pairing(rs: RootSystem, lam: Weight, root: Weight) -> Fraction:
    """<lam, root^vee> = 2 (lam, root) / (root, root) for any root."""
    return 2 * form(rs, lam, root) / form(rs, root, root)


def reflect(rs: RootSystem, i: int, lam: Weight) -> Weight:
    """Simple reflection r_i(lam) = lam - <lam, alpha_i^vee> alpha_i."""
    if not 0 <= i < rs.rank:
        raise PreconditionError(f"simple root index {i} out of range for {rs}")
    lam = require_rank(rs, lam)
    c = lam[i]
    if not c:
        return lam
    col = rs.simple_roots[i]
    return tuple(x - c * col[j] for j, x in enumerate(lam))


def weyl_elements(rs: RootSystem) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
    """The full Weyl group as (action matrix, sign) pairs, identity first, then breadth first.

    The only code that lists W, so the one place the Weyl-order cap applies. The
    Racah-Speiser sum reads its signs from the orbit of mu+rho built from this list,
    whether it runs over that orbit or over the weights of V^lam.
    """
    return shared(_WEYL_MEMO, rs, lambda: _list_weyl_group(rs))


def _list_weyl_group(rs: RootSystem) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
    # rho is regular, so "seen" keys on r_i w(rho) and only a new r_i w gets a matrix; r_i w
    # is shorter than w, so listed a level ago, when coordinate i of w(rho) is negative
    if rs.weyl_order > WEYL_ORDER_CAP:
        raise CapExceededError(f"{rs} has Weyl group order {rs.weyl_order} > cap {WEYL_ORDER_CAP}")
    rank, simple = rs.rank, rs.simple_roots
    ident = tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))
    elements = [(ident, 1)]
    seen = {rs.rho}
    queue = [(ident, rs.rho, 1)]
    while queue:
        nxt = []
        for mat, image, sign in queue:
            for i, c in enumerate(image):
                point = c > 0 and tuple([x - c * a for x, a in zip(image, simple[i])])
                if point and point not in seen:
                    seen.add(point)
                    cand = _reflect_rows(simple, i, mat)
                    elements.append((cand, -sign))
                    nxt.append((cand, point, -sign))
        queue = nxt
    if len(elements) != rs.weyl_order:
        raise InternalError(
            f"built {len(elements)} Weyl group elements of {rs}, not {rs.weyl_order}"
        )
    return elements


def dual_weight(rs: RootSystem, lam: Weight) -> Weight:
    """lam* = -w0(lam); permutes fundamental coordinates by the diagram involution."""
    lam, sigma = require_rank(rs, lam), rs.dual_permutation
    return tuple(lam[sigma[j]] for j in range(rs.rank))


def current_orbit(rs: RootSystem, k: int, lam: Weight) -> tuple[Weight, ...]:
    """(lam, J_j lam for each node j of mark 1 in node order): lam's level-k simple currents.

    J_j lam = k omega_j + w0^(j) w0 lam. w0^(j), the longest element of the Weyl
    group of the simple roots other than alpha_j, takes the antidominant
    w0 lam = -lam* to its fold by the reflections other than r_j. Only nodes with
    mark 1 carry a current; comark 1 is not enough (the short nodes of B_n and C_n,
    and one node each of G2 and F4, have comark 1). The only code that picks them.
    """
    key = (rs, k, tuple(lam))
    return _CURRENT_MEMO.get(key) or shared(_CURRENT_MEMO, key, lambda: _current_orbit(*key))


def _current_orbit(rs: RootSystem, k: int, lam: Weight) -> tuple[Weight, ...]:
    x, orbit = wneg(dual_weight(rs, lam)), [lam]
    for j, m in enumerate(rs.marks):
        if m == 1:
            y = list(_fold(rs.simple_roots, x, skip=j)[0])
            y[j] += k
            orbit.append(tuple(y))
    return tuple(orbit)


def fold_dominant(rs: RootSystem, x: Weight) -> tuple[Weight, int]:
    """The dominant point of the W-orbit of x, and (-1)^(simple reflections taken to reach it)."""
    x, steps = _fold(rs.simple_roots, x)
    return x, -1 if steps % 2 else 1


def root_lattice_coords(rs: RootSystem, lower: Weight, upper: Weight) -> tuple[int, ...] | None:
    """upper - lower in simple-root coordinates when they are nonnegative integers, else None.

    The coordinates are the rows of the scaled Cartan inverse applied to the
    difference, each divided exactly by ``cartan_inverse_den``.
    """
    den = rs.cartan_inverse_den
    diff = wsub(upper, lower)
    coords = []
    for row in rs.cartan_inverse_num:
        c = sum(map(mul, row, diff))
        if c < 0 or c % den:
            return None
        coords.append(c // den)
    return tuple(coords)


def is_weight_of(rs: RootSystem, lam: Weight, beta: Weight) -> bool:
    """Whether beta is a weight of V^lam: its dominant W-conjugate lies below lam in the
    root-lattice order (Humphreys §21.3). One chamber fold, and no diagram is built."""
    lam = require_dominant(require_rank(rs, lam, "lam"), "lam")
    rep = fold_dominant(rs, require_rank(rs, beta, "beta"))[0]
    return root_lattice_coords(rs, rep, lam) is not None


def root_lattice_depth(rs: RootSystem, lower: Weight, upper: Weight) -> int | None:
    """Height of upper - lower as a nonnegative integer sum of simple roots, else None."""
    coords = root_lattice_coords(rs, lower, upper)
    return None if coords is None else sum(coords)


def weyl_orbit(rs: RootSystem, mu: Weight) -> list[list[Weight]]:
    """The W-orbit of a dominant weight, walked down by simple reflections.

    Level d holds the orbit points first reached after d reflections, each
    taken at a positive coordinate. For a regular mu (rho) the walk meets each
    w in W once, and level d is {w mu : w has length d}.
    """
    level, simple = [require_dominant(mu)], rs.simple_roots
    levels, seen = [], set(level)
    while level:
        levels.append(level)
        level = []
        for x in levels[-1]:
            for i, c in enumerate(x):  # r_i x at each positive coordinate, as ``reflect`` does
                if c > 0 and (y := tuple([a - c * b for a, b in zip(x, simple[i])])) not in seen:
                    seen.add(y)
                    level.append(y)
    return levels
