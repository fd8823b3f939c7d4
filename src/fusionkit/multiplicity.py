"""Weight diagrams of irreducible highest weight modules.

Two independent constructions are provided: the Weyl-group recursion
``Mult(nu) = -sum_{w != 1} eps(w) Mult(nu + rho - w rho)`` and the classical
Freudenthal formula. They must produce identical tables; the sum of all
multiplicities must match the Weyl dimension formula. Diagrams are stored in
full (every W-orbit member is a key) so downstream folding sums can read them
at arbitrary arguments.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from math import lcm, prod
from operator import mul
from typing import Mapping

from .errors import InternalError, PreconditionError
from .rootdata import (
    RootSystem,
    Weight,
    alpha_coordinates,
    apply_matrix,
    dominant_in_orbit,
    is_dominant,
    wadd,
    weyl_elements,
    wsub,
)


@dataclass(frozen=True)
class WeightDiagram:
    """Multiplicity table of one irreducible module; keys are all its weights."""

    highest: Weight
    table: Mapping[Weight, int]
    root_system: RootSystem = field(compare=False, repr=False)

    def multiplicity(self, nu: Weight) -> int:
        return self.table.get(tuple(nu), 0)

    @property
    def dimension(self) -> int:
        return sum(self.table.values())


_WEYL_FUNCTIONALS: dict[str, tuple] = {}


def _weyl_functionals(rs: RootSystem) -> tuple[tuple, tuple, int]:
    """The form scaled to integers, its functionals per positive root, and the Weyl denominator.

    With D the common denominator of ``sym_form``, returns the integer matrix
    D ``sym_form``, the integer functionals D (., alpha) per positive root and
    prod_alpha D (rho, alpha); the D's cancel in every quotient taken here.
    """
    key = str(rs.cartan_type)
    got = _WEYL_FUNCTIONALS.get(key)
    if got is None:
        den = lcm(*(x.denominator for row in rs.sym_form for x in row))
        sym = tuple(tuple(int(x * den) for x in row) for row in rs.sym_form)
        funcs = tuple(
            tuple(sum(map(mul, row, alpha)) for row in sym) for alpha in rs.positive_roots
        )
        denom = prod(sum(map(mul, f, rs.rho)) for f in funcs)
        got = _WEYL_FUNCTIONALS.setdefault(key, (sym, funcs, denom))
    return got


def weyl_dimension(rs: RootSystem, lam: Weight) -> int:
    """Weyl dimension formula, evaluated exactly in integers."""
    if not is_dominant(lam):
        raise PreconditionError(f"{lam} is not dominant")
    _, funcs, denom = _weyl_functionals(rs)
    lam_rho = wadd(lam, rs.rho)
    num = prod(sum(map(mul, f, lam_rho)) for f in funcs)
    dim, rem = divmod(num, denom)
    if rem:
        raise InternalError(f"Weyl dimension of {lam} is not an integer: {num}/{denom}")
    return dim


def weight_support(rs: RootSystem, lam: Weight) -> dict[Weight, int]:
    """All weights of V^lam with their depth below lam.

    A weight of lam's lattice coset belongs to the support exactly when its
    dominant representative sits below lam in the root-lattice order; the
    support is connected upward, so a downward breadth-first walk finds it all.
    """
    if not is_dominant(lam):
        raise PreconditionError(f"{lam} is not dominant")

    def member(nu: Weight) -> bool:
        dom = dominant_in_orbit(rs, nu)
        diff = alpha_coordinates(rs, wsub(lam, dom))
        return all(c.denominator == 1 and c >= 0 for c in diff)

    depths = {lam: 0}
    frontier = [lam]
    while frontier:
        nxt = []
        for nu in frontier:
            d = depths[nu]
            for a in rs.simple_roots:
                cand = wsub(nu, a)
                if cand not in depths and member(cand):
                    depths[cand] = d + 1
                    nxt.append(cand)
        frontier = nxt
    return depths


_DIAGRAM_MEMO: dict[tuple[str, Weight], WeightDiagram] = {}
_DIAGRAM_LOCK = threading.Lock()


def weight_diagram(rs: RootSystem, lam: Weight) -> WeightDiagram:
    """Full weight diagram of V^lam via the Weyl-recursion for multiplicities.

    rho - w rho is a positive root sum for w != 1, so the recursion only ever
    consults strictly higher weights and is well founded.
    """
    lam = tuple(lam)
    key = (str(rs.cartan_type), lam)
    got = _DIAGRAM_MEMO.get(key)
    if got is not None:
        return got
    if not is_dominant(lam):
        raise PreconditionError(f"{lam} is not dominant")

    depths = weight_support(rs, lam)
    dominants = sorted(
        (nu for nu in depths if is_dominant(nu)), key=lambda nu: (depths[nu], nu)
    )
    group = weyl_elements(rs)
    shifts = []
    for mat, sign in group[1:]:
        shifts.append((wsub(rs.rho, apply_matrix(mat, rs.rho)), sign))

    mult: dict[Weight, int] = {}
    for nu in dominants:
        if nu == lam:
            mult[nu] = 1
            continue
        acc = 0
        for shift, sign in shifts:
            arg = dominant_in_orbit(rs, wadd(nu, shift))
            m = mult.get(arg)
            if m:
                acc += sign * m
        value = -acc
        if value < 1:
            raise InternalError(f"the W-recursion produced {value} at {nu} in V^{lam}")
        mult[nu] = value

    table = {nu: mult[dominant_in_orbit(rs, nu)] for nu in depths}
    diagram = WeightDiagram(highest=lam, table=table, root_system=rs)
    if diagram.dimension != weyl_dimension(rs, lam):
        raise InternalError(f"the diagram of V^{lam} totals {diagram.dimension}, not dim V^{lam}")
    with _DIAGRAM_LOCK:
        _DIAGRAM_MEMO.setdefault(key, diagram)
    return _DIAGRAM_MEMO[key]


def freudenthal_diagram(rs: RootSystem, lam: Weight) -> WeightDiagram:
    """Independent oracle: the Freudenthal multiplicity formula."""
    lam = tuple(lam)
    if not is_dominant(lam):
        raise PreconditionError(f"{lam} is not dominant")

    depths = weight_support(rs, lam)
    dominants = sorted(
        (nu for nu in depths if is_dominant(nu)), key=lambda nu: (depths[nu], nu)
    )
    group = weyl_elements(rs)
    # everything scaled by D, which cancels in the quotient: D (., alpha) and D |x|^2
    sym, funcs, _ = _weyl_functionals(rs)

    def norm(x: Weight) -> int:
        return sum(a * sum(map(mul, row, x)) for a, row in zip(x, sym) if a)

    top_norm = norm(wadd(lam, rs.rho))
    table: dict[Weight, int] = {}
    for nu in dominants:
        if nu == lam:
            value = 1
        else:
            acc = 0
            for alpha, f in zip(rs.positive_roots, funcs):
                cur = wadd(nu, alpha)
                while (m := table.get(cur)) is not None:  # weight strings are unbroken
                    acc += m * sum(map(mul, f, cur))
                    cur = wadd(cur, alpha)
            denom = top_norm - norm(wadd(nu, rs.rho))
            value, rem = divmod(2 * acc, denom)
            if rem or value < 1:
                raise InternalError(f"Freudenthal gives {2 * acc}/{denom} at {nu} in V^{lam}")
        for mat, _ in group:
            table[apply_matrix(mat, nu)] = value

    if set(table) != set(depths):
        raise InternalError(f"Freudenthal and the support of V^{lam} disagree")
    return WeightDiagram(highest=lam, table=table, root_system=rs)


def dominant_weights_up_to_dim(rs: RootSystem, dim_cap: int) -> list[Weight]:
    """All dominant weights whose Weyl dimension is at most dim_cap."""
    out: list[Weight] = []

    def rec(prefix: tuple[int, ...]):
        if len(prefix) == rs.rank:
            if weyl_dimension(rs, prefix) <= dim_cap:
                out.append(prefix)
            return
        c = 0
        while True:
            cand = prefix + (c,) + (0,) * (rs.rank - len(prefix) - 1)
            if weyl_dimension(rs, cand) > dim_cap:
                break  # dimension grows in every coordinate
            rec(prefix + (c,))
            c += 1

    rec(())
    return sorted(out)
