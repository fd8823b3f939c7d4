"""Tensor product multiplicities, weight strings, and stability thresholds.

The production path for tensor multiplicities (the PRV criterion and the
Kac-Walton backend read it) is the Racah-Speiser signed sum over W. Weight
multiplicities are W-invariant and eps(w^-1) = eps(w), so it reads the signed
orbit {w(mu+rho): eps(w)}, memoised per (root system, mu+rho) from
``weyl_elements`` (the only code that lists W), and runs over that orbit or
over the weights of V^lam, whichever is smaller. A greedy
character-subtraction decomposition is kept alongside as an independent
oracle for tests: multiply two diagrams as multisets, then repeatedly peel
the highest remaining weight. Both read the production (Freudenthal) weight
diagrams.
"""

from __future__ import annotations

from operator import sub
from typing import NamedTuple

from .errors import InternalError, PreconditionError
from .multiplicity import WeightDiagram, weight_diagram
from .rootdata import (
    RootSystem,
    Weight,
    apply_matrix,
    is_dominant,
    require_dominant,
    require_rank,
    root_lattice_depth,
    shared,
    wadd,
    weyl_elements,
    wsub,
)


class TensorDecomposition(NamedTuple):
    left: Weight
    right: Weight
    terms: dict[Weight, int]


class WeightString(NamedTuple):
    """Maximal string base - down*dir, ..., base, ..., base + up*dir in a diagram."""

    base: Weight
    direction: Weight
    down: int
    up: int


_ORBIT_MEMO: dict[tuple[RootSystem, Weight], dict[Weight, int]] = {}


def _orbit_points(rs: RootSystem, group, mu_rho: Weight) -> dict[Weight, int]:
    """{w(mu_rho): eps(w)} over ``group`` (the listed W of rs); mu_rho is regular."""
    def signed_orbit():
        orbit = {apply_matrix(mat, mu_rho): sign for mat, sign in group}
        if len(orbit) != len(group):
            raise InternalError(f"{len(group)} elements of W map {mu_rho} to {len(orbit)} points")
        return orbit
    return shared(_ORBIT_MEMO, (rs, mu_rho), signed_orbit)


def tensor_multiplicity(rs: RootSystem, lam: Weight, mu: Weight, nu: Weight) -> int:
    """Copies of V^nu in V^lam (x) V^mu: sum_w eps(w) m_lam(nu+rho - w(mu+rho))."""
    lam, mu, nu = map(require_dominant, (lam, mu, nu))
    if not len(mu) == len(nu) == rs.rank:  # lam's length is checked where its diagram is built
        raise PreconditionError(f"mu = {mu}, nu = {nu}: each needs {rs.rank} coordinates for {rs}")
    table = weight_diagram(rs, lam).table
    orbit = _orbit_points(rs, weyl_elements(rs), wadd(mu, rs.rho))
    # x -> nu+rho - x swaps the two index sets, so one loop runs over the smaller
    terms, other = (orbit, table) if len(orbit) <= len(table) else (table, orbit)
    get, nu_rho = other.get, wadd(nu, rs.rho)
    total = 0
    for x, c in terms.items():
        m = get(tuple(map(sub, nu_rho, x)))
        if m:
            total += c * m
    if total < 0:
        raise InternalError(f"Racah-Speiser sum {total} < 0 for V^{nu} in V^{lam} (x) V^{mu}")
    return total


def tensor_decompose(rs: RootSystem, lam: Weight, mu: Weight) -> TensorDecomposition:
    """Full decomposition of V^lam (x) V^mu into irreducibles."""
    lam, mu = require_dominant(lam), require_dominant(mu)
    diagram = weight_diagram(rs, lam)
    terms: dict[Weight, int] = {}
    for beta in diagram.table:
        nu = wadd(beta, mu)
        if not is_dominant(nu) or nu in terms:
            continue
        m = tensor_multiplicity(rs, lam, mu, nu)
        if m:
            terms[nu] = m
    return TensorDecomposition(left=lam, right=mu, terms=dict(sorted(terms.items())))


def product_diagram(d1: WeightDiagram, d2: WeightDiagram) -> dict[Weight, int]:
    """Pointwise multiset product of two weight diagrams."""
    out: dict[Weight, int] = {}
    for b, mb in d1.table.items():
        for c, mc in d2.table.items():
            key = wadd(b, c)
            out[key] = out.get(key, 0) + mb * mc
    return out


def greedy_decompose(rs: RootSystem, lam: Weight, mu: Weight) -> dict[Weight, int]:
    """Independent decomposition oracle by repeated top-weight peeling."""
    lam, mu = require_dominant(lam), require_dominant(mu)
    remaining = product_diagram(weight_diagram(rs, lam), weight_diagram(rs, mu))
    top = wadd(lam, mu)
    depths: dict[Weight, int] = {}
    for w in remaining:
        depths[w] = root_lattice_depth(rs, w, top)
        if depths[w] is None:
            raise InternalError(f"{w} is a weight of V^{lam} (x) V^{mu} but not below {top}")
    terms: dict[Weight, int] = {}
    while remaining:
        head = min(remaining, key=lambda w: (depths[w], w))
        count = remaining[head]
        if count < 1 or not is_dominant(head):
            raise InternalError(f"peeling V^{lam} (x) V^{mu} left {count} at the top weight {head}")
        terms[head] = count
        for w, m in weight_diagram(rs, head).table.items():
            left = remaining.get(w, 0) - count * m
            if left < 0:
                raise InternalError(f"peeling V^{head} from V^{lam} (x) V^{mu} left {left} at {w}")
            if left:
                remaining[w] = left
            else:
                del remaining[w]
    return dict(sorted(terms.items()))


def weight_string(diagram: WeightDiagram, beta: Weight, direction: Weight) -> WeightString:
    """Scan the maximal arithmetic string through beta in a root direction."""
    rs = diagram.root_system
    beta, direction = require_rank(rs, beta, "beta"), require_rank(rs, direction, "direction")
    if not any(direction):  # beta + 0 is beta: the scan would never end
        raise PreconditionError("direction must be nonzero")
    if beta not in diagram.table:
        raise PreconditionError(f"{beta} is not a weight of V^{diagram.highest}")
    up = 0
    cur = wadd(beta, direction)
    while cur in diagram.table:
        up += 1
        cur = wadd(cur, direction)
    down = 0
    cur = wsub(beta, direction)
    while cur in diagram.table:
        down += 1
        cur = wsub(cur, direction)
    return WeightString(base=beta, direction=direction, down=down, up=up)


def stability_threshold(diagram: WeightDiagram, beta: Weight, j: int) -> int:
    """Upper string length q through beta along alpha_j.

    Once <mu, alpha_j> reaches this value, growing mu along the j-th
    fundamental weight no longer changes the outer multiplicity at beta + mu.
    """
    rs = diagram.root_system
    if not 0 <= j < rs.rank:
        raise PreconditionError(f"simple root index {j} out of range for {rs}")
    return weight_string(diagram, beta, rs.simple_roots[j]).up
