"""Weight diagrams of irreducible highest weight modules.

One builder (``_orbit_diagram``) walks the dominant weights of V^lam highest
first and writes each multiplicity to the W-orbit of its weight, walked by
simple reflections once per weight and shared (no Weyl group element is ever
built). Two rules give the multiplicity: production diagrams
(``weight_diagram``, memoised) use the Freudenthal formula in integers, and
the independent oracle (``recursion_diagram``) the Weyl-group recursion
``Mult(nu) = -sum_{w != 1} eps(w) Mult(nu + rho - w rho)``. Both tables must
be identical, and the builder checks that every value is at least 1 and that
the total is the Weyl dimension. Diagrams are stored in full (every W-orbit
member is a key) so downstream folding sums can read them at arbitrary
arguments.
"""

from __future__ import annotations

from itertools import chain
from math import prod
from operator import add, mul, sub
from typing import Mapping

from .errors import InternalError
from .rootdata import (
    RootSystem,
    Weight,
    dominant_weights_within,
    is_dominant,
    require_dominant,
    require_rank,
    shared,
    wadd,
    weyl_orbit,
)


class WeightDiagram:
    """Multiplicity table of one irreducible module; keys are all its weights.

    Slots, like ``RootSystem``'s, because the hot loops read ``table``.
    """

    __slots__ = ("highest", "table", "root_system")

    def __init__(self, highest: Weight, table: Mapping[Weight, int], root_system: RootSystem):
        self.highest, self.table, self.root_system = highest, table, root_system

    def multiplicity(self, nu: Weight) -> int:
        return self.table.get(tuple(nu), 0)

    @property
    def dimension(self) -> int:
        return sum(self.table.values())


_DIMENSION_MEMO: dict[tuple[RootSystem, Weight], int] = {}


def weyl_dimension(rs: RootSystem, lam: Weight) -> int:
    """dim V^lam by the Weyl dimension formula, shared per (root system, lam)."""
    key = (rs, tuple(lam))
    return _DIMENSION_MEMO.get(key) or shared(_DIMENSION_MEMO, key, lambda: _weyl_formula(rs, lam))


def _weyl_formula(rs: RootSystem, lam: Weight) -> int:  # exactly, in integers
    lam_rho, denom = wadd(require_dominant(require_rank(rs, lam)), rs.rho), rs.weyl_denominator
    num = prod(sum(map(mul, f, lam_rho)) for f in rs.root_functionals)
    dim, rem = divmod(num, denom)
    if rem:
        raise InternalError(f"Weyl dimension of {lam} is not an integer: {num}/{denom}")
    return dim


def dominant_weights(rs: RootSystem, lam: Weight) -> dict[Weight, int]:
    """The dominant weights of V^lam with their depth below lam.

    They are the dominant nu with lam - nu a nonnegative sum of simple roots,
    and each is reached from lam through dominant weights by subtracting one
    positive root at a time (Stembridge 1998), so a walk over positive roots
    that stays dominant finds them all with no membership test.
    """
    lam = require_dominant(lam)
    # ht(alpha) = <alpha, rho^vee>, read off the column sums of the scaled Cartan inverse
    cols = [sum(col) for col in zip(*rs.cartan_inverse_num)]
    den = rs.cartan_inverse_den
    steps = [(alpha, sum(map(mul, cols, alpha)) // den) for alpha in rs.positive_roots]
    depths = {lam: 0}
    frontier = [lam]
    while frontier:
        nxt = []
        for nu in frontier:
            for alpha, height in steps:
                cand = tuple(map(sub, nu, alpha))
                if cand not in depths and is_dominant(cand):
                    depths[cand] = depths[nu] + height
                    nxt.append(cand)
        frontier = nxt
    return depths


_DIAGRAM_MEMO: dict[tuple[RootSystem, Weight], WeightDiagram] = {}
_ORBIT_MEMO: dict[tuple[RootSystem, Weight], tuple[Weight, ...]] = {}  # flattened W-orbits


def weight_diagram(rs: RootSystem, lam: Weight) -> WeightDiagram:
    """Full weight diagram of V^lam, shared: the production form of freudenthal_diagram."""
    key = (rs, tuple(lam))
    return _DIAGRAM_MEMO.get(key) or shared(_DIAGRAM_MEMO, key, lambda: freudenthal_diagram(*key))


def _orbit_diagram(rs: RootSystem, lam: Weight, rule: str, value) -> WeightDiagram:
    """The diagram of V^lam from one multiplicity rule, evaluated on the dominant weights.

    Dominant weights are taken highest first, and every weight above nu lies
    in the orbit of a dominant weight of smaller depth, which is already in
    the table; ``value(nu, get)`` reads those through ``get``, the table's own
    ``get``. Each value is written to the W-orbit of its weight. A value below
    1, or a total other than the Weyl dimension, is an error of ``rule``.
    """
    lam = require_rank(rs, lam)
    depths = dominant_weights(rs, lam)
    orbit = lambda nu: _ORBIT_MEMO.get((rs, nu)) or shared(  # walked once per (rs, nu)
        _ORBIT_MEMO, (rs, nu), lambda: tuple(chain.from_iterable(weyl_orbit(rs, nu))))
    table = dict.fromkeys(orbit(lam), 1)
    for nu in sorted(depths, key=lambda nu: (depths[nu], nu))[1:]:  # lam, at depth 0, is done
        m = value(nu, table.get)
        if m < 1:
            raise InternalError(f"{rule} gives {m} at {nu} in V^{lam}")
        table.update(dict.fromkeys(orbit(nu), m))
    diagram = WeightDiagram(highest=lam, table=table, root_system=rs)
    if diagram.dimension != weyl_dimension(rs, lam):
        raise InternalError(f"the {rule} diagram of V^{lam} totals {diagram.dimension}, not dim V^{lam}")
    return diagram


def freudenthal_diagram(rs: RootSystem, lam: Weight) -> WeightDiagram:
    """The Freudenthal formula as the rule of ``_orbit_diagram``.

    The string sum over nu + j alpha (j >= 1) is kept as a suffix sum
    tail[nu + alpha] = sum_{j >= 1} m(nu + j alpha) D (nu + j alpha, alpha),
    one table per positive root. A lower dominant weight on the same string
    walks up only to that entry, so each string is summed once.
    """
    lam = require_rank(rs, lam)
    # everything scaled by D = form_den, which cancels in the quotient: D (., alpha) and D |x|^2
    sym, rho = rs.form_num, rs.rho

    def norm(x: Weight) -> int:  # D |x + rho|^2
        x = tuple(map(add, x, rho))
        return sum(a * sum(map(mul, row, x)) for a, row in zip(x, sym) if a)

    top_norm = norm(lam)
    # per positive root: alpha, D (., alpha), D (alpha, alpha) and the suffix sums of its strings
    roots = [(alpha, f, sum(map(mul, f, alpha)), {})
             for alpha, f in zip(rs.positive_roots, rs.root_functionals)]

    def value(nu: Weight, get) -> int:
        # Strings are unbroken: the walk up from nu + alpha stops at the top of the
        # string or at the suffix sum a higher dominant weight left, final when written.
        acc = 0
        for alpha, f, step, tail in roots:
            start = cur = tuple(map(add, nu, alpha))
            pair, string = sum(map(mul, f, cur)), 0
            while (rest := tail.get(cur)) is None and (m := get(cur)) is not None:
                string += m * pair  # pair = D (cur, alpha), growing by D (alpha, alpha)
                pair += step
                cur = tuple(map(add, cur, alpha))
            tail[start] = string = string + (rest or 0)
            acc += string
        denom = top_norm - norm(nu)
        m, rem = divmod(2 * acc, denom)
        if rem:
            raise InternalError(f"Freudenthal gives {2 * acc}/{denom} at {nu} in V^{lam}")
        return m

    return _orbit_diagram(rs, lam, "Freudenthal", value)


def recursion_diagram(rs: RootSystem, lam: Weight) -> WeightDiagram:
    """Independent oracle: the Weyl-group recursion as the rule of ``_orbit_diagram``.

    The shifts rho - w rho come from the orbit of rho walked by simple
    reflections: rho is regular, so each w != 1 appears once, at the depth
    l(w), and eps(w) = (-1)^l(w). rho - w rho is a positive root sum for
    w != 1, so the recursion only ever reads strictly higher weights, and a
    shifted weight missing from the table is not a weight: it counts 0.
    """
    shifts = [(tuple(map(sub, rs.rho, x)), -1 if length % 2 else 1)
              for length, level in enumerate(weyl_orbit(rs, rs.rho)) if length for x in level]

    def value(nu: Weight, get) -> int:
        return -sum(sign * get(tuple(map(add, nu, shift)), 0) for shift, sign in shifts)

    return _orbit_diagram(rs, lam, "W-recursion", value)


def dominant_weights_up_to_dim(rs: RootSystem, dim_cap: int) -> list[Weight]:
    """All dominant weights whose Weyl dimension is at most dim_cap, sorted."""
    return dominant_weights_within(rs.rank, lambda w: weyl_dimension(rs, w) <= dim_cap)
