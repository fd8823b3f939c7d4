"""Level-k fusion coefficients with three independent backends.

The production backend cuts the PRV subspace of V^lam_beta further by a power of the
raising operator for the highest root ("Walton space"); its dimension, the fusion
coefficient, is read off the weight diagram by ``_walton_space`` (maximal ranks along
sl2 strings) unless two live constraints need a stacked rank. Two oracles cross-certify
it: Kac-Walton affine folding of tensor multiplicities at shifted level k + h_vee, and a
direct Frenkel-Zhu computation on the tensor product module (lowest weight vectors that
f_theta^{k-<nu,theta>+1} (x) 1 kills: f_theta is the form-adjoint of e_theta, so these
are the invariant forms that kill (e_theta^{k-<nu,theta>+1} V^lam) (x) V^mu).
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from itertools import permutations
from operator import mul, sub
from typing import NamedTuple

from .errors import CapExceededError, InternalError, ParseError, PreconditionError
from .linalg import RationalMatrix
from .multiplicity import weight_diagram, weyl_dimension
from .repspace import (
    DEFAULT_DIM_CAP,
    RepModule,
    cached_module,
    check_dim_cap,
    operator_power_block,
)
from .rootdata import (
    RootSystem,
    Weight,
    current_orbit,
    dominant_weights_within,
    dual_weight,
    fold_dominant,
    is_dominant,
    is_weight_of,
    require_dominant,
    require_rank,
    root_lattice_depth,
    wadd,
    wneg,
    wscale,
    wsub,
)
from .tensor import tensor_decompose

DEFAULT_FZ_CAP = 400

Triple = tuple[Weight, Weight, Weight]

_FOLD_LIMIT = 100_000


def check_level(k: int) -> int:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise PreconditionError(f"level must be a positive integer, got {k!r}")
    return k


def theta_pairing(rs: RootSystem, w: Weight) -> int:
    """<w, theta> as an integer; theta is its own coroot here."""
    return sum(map(mul, rs.comarks, w))


def in_alcove(rs: RootSystem, k: int, w: Weight) -> bool:
    return is_dominant(w) and theta_pairing(rs, w) <= k


def _require_alcove(rs: RootSystem, k: int, w: Weight, name: str) -> None:
    require_dominant(require_rank(rs, w, name), name)
    if theta_pairing(rs, w) > k:
        raise PreconditionError(
            f"level violation: <{name}, theta> = {theta_pairing(rs, w)} > k = {k}"
        )


def level_alcove(rs: RootSystem, k: int) -> list[Weight]:
    """All dominant weights with <lam, theta> <= k, sorted lexicographically."""
    check_level(k)
    return dominant_weights_within(rs.rank, lambda w: theta_pairing(rs, w) <= k)


def alcove_dims(rs: RootSystem, k: int, max_dim: int) -> dict[Weight, int]:
    """{w: dim V^w} over the level-k alcove, in ``level_alcove`` order, or CapExceededError.

    The vertices floor(k / a_j) omega_j are checked before the alcove is listed:
    each lies in the alcove, and the Weyl dimension grows in every coordinate,
    so a vertex over ``max_dim`` refuses the table whatever its size.
    """
    check_level(k)
    for j, a in enumerate(rs.comarks):
        check_dim_cap(rs, tuple(k // a * (i == j) for i in range(rs.rank)), max_dim)
    return {w: check_dim_cap(rs, w, max_dim) for w in level_alcove(rs, k)}


def _check_triple(rs: RootSystem, k: int, lam: Weight, mu: Weight, nu: Weight) -> Triple:
    """(lam, mu, nu) as tuples, after checking the level and that each is in the level-k alcove."""
    check_level(k)
    triple = tuple(lam), tuple(mu), tuple(nu)
    for w, name in zip(triple, ("lam", "mu", "nu")):
        _require_alcove(rs, k, w, name)
    return triple


def _module_with_weight(rs: RootSystem, lam: Weight, beta: Weight, max_dim: int) -> RepModule:
    """The shared V^lam, capped before its diagram is read, after checking beta is a weight of it."""
    module = cached_module(rs, lam, max_dim)
    if beta not in module.diagram.table:
        raise PreconditionError(f"beta = {beta} is not a weight of V^{lam}")
    return module


def _walton_space(module: RepModule, beta: Weight, mu: Weight, k: int | None = None) -> int:
    """dim{v in V^lam_beta : e_j^{<mu,alpha_j>+1} v = 0 for all j} (PRV), and at a level k also
    e_theta^{k-<beta+mu,theta>+1} v = 0 (Walton), in the module V^lam that holds the weight beta.

    Each e^n is a power of one sl2-triple's root vector (the nested commutator e_theta is a
    nonzero multiple of theta's; ``repspace`` refuses it if it vanishes), so out of V_beta it has
    maximal rank min(dim V_beta, dim V_{beta+n alpha}), read off the diagram. If one constraint
    has full rank, or at most one is live (nonzero), that decides the value and builds no weight
    space; else only the live blocks are stacked and ranked.
    """
    rs, dim = module.root_system, module.dim_at(beta)
    ops = [(f"e{j}", m + 1, alpha) for j, (m, alpha) in enumerate(zip(mu, rs.simple_roots))]
    if k is not None:
        ops.append(("etheta", k - theta_pairing(rs, wadd(beta, mu)) + 1, rs.theta))
    live = {(op, n): r for op, n, alpha in ops
            if (r := min(dim, module.dim_at(wadd(beta, wscale(n, alpha)))))}
    if len(live) <= 1 or dim in live.values():
        return dim - max(live.values(), default=0)
    return dim - RationalMatrix.vstack(
        [operator_power_block(module, op, n, beta) for op, n in live], dim).rank()


def prv_dimension(rs: RootSystem, lam: Weight, beta: Weight, mu: Weight,
                  max_dim: int = DEFAULT_DIM_CAP) -> int:
    """dim{v in V^lam_beta : e_j^{<mu,alpha_j>+1} v = 0 for all j}.

    Equals the tensor multiplicity of V^{beta+mu} in V^lam (x) V^mu.
    """
    lam, beta = require_dominant(lam, "lam"), tuple(beta)
    mu = require_dominant(require_rank(rs, mu, "mu"), "mu")
    require_dominant(wadd(beta, mu), "beta+mu")
    return _walton_space(_module_with_weight(rs, lam, beta, max_dim), beta, mu)


def walton_dimension(rs: RootSystem, k: int, lam: Weight, beta: Weight, mu: Weight,
                     max_dim: int = DEFAULT_DIM_CAP) -> int:
    """Walton-space dimension: the PRV conditions plus e_theta^{k-<beta+mu,theta>+1} v = 0."""
    check_level(k)
    lam, beta, mu = tuple(lam), tuple(beta), tuple(mu)
    _require_alcove(rs, k, lam, "lam")
    _require_alcove(rs, k, mu, "mu")
    module = _module_with_weight(rs, lam, beta, max_dim)
    _require_alcove(rs, k, wadd(beta, mu), "beta+mu")
    return _walton_space(module, beta, mu, k)


def fusion_coefficient(rs: RootSystem, k: int, lam: Weight, mu: Weight, nu: Weight,
                       max_dim: int = DEFAULT_DIM_CAP) -> int:
    """N^(k)nu_{lam,mu}, computed on the Walton space of the cheapest equivalent triple.

    Among the triples (a, b, t) with N^(k)t_{a,b} = N^(k)nu_{lam,mu}, the one of least
    (dim V^a, depth of t - b below a, a, b) is ranked at beta = t - b; its module is
    never larger than V^lam. A zero cell (nu - mu not a weight of V^lam, by ``is_weight_of``)
    or a zero class builds neither a module nor a diagram. ``walton_dimension`` is the
    symmetry-free form.
    """
    lam, mu, nu = _check_triple(rs, k, lam, mu, nu)
    check_dim_cap(rs, lam, max_dim)
    if not is_weight_of(rs, lam, wsub(nu, mu)):
        return 0
    return _class_value(rs, k, _equivalent_triples(rs, k, lam, mu, nu), max_dim)


def _equivalent_triples(rs: RootSystem, k: int, lam: Weight, mu: Weight,
                        nu: Weight) -> set[Triple]:
    """Every (a, b, t) with N^(k)t_{a,b} = N^(k)nu_{lam,mu} by S3 and the simple currents.

    N^nu_{lam,mu} = N_{lam,mu,nu*} is symmetric in its three weights, and
    N^{J_x J_y t}_{J_x a, J_y b} = N^t_{a,b} for currents J_x, J_y (or the identity);
    ``current_orbit(rs, k, w)[x]`` is J_x w, the identity first.
    """
    weights = (lam, mu, dual_weight(rs, nu))  # (a, b, t*) runs over their orderings
    orbit = {w: current_orbit(rs, k, w) for w in weights}
    # for each c of weights and t = c*: the orbit of J_y t, for each current J_y
    moved = {c: [current_orbit(rs, k, jt) for jt in current_orbit(rs, k, dual_weight(rs, c))]
             for c in weights}
    return {(ja, jb, jt)
            for a, b, c in permutations(weights)
            for jb, jy_t in zip(orbit[b], moved[c])
            for ja, jt in zip(orbit[a], jy_t)}


def _class_value(rs: RootSystem, k: int, triples: set[Triple], max_dim: int) -> int:
    """The common N^(k)t_{a,b} of one ``_equivalent_triples`` class, from one member.

    The member of least (dim V^a, depth of t - b below a, a, b) is ranked at
    beta = t - b; only the members of least dim V^a get a depth. Its beta is tested by
    ``is_weight_of``, so a zero class builds neither a module nor a diagram.
    """
    dims = {a: weyl_dimension(rs, a) for a in {a for a, _, _ in triples}}
    least = min(dims.values())
    keyed = []
    for a, b, t in triples:
        if dims[a] == least:
            depth = root_lattice_depth(rs, wsub(t, b), a)
            if depth is None:  # t - b is not below a, so not a weight of V^a
                return 0
            keyed.append((depth, a, b, t))
    _, a, b, t = min(keyed)
    beta = wsub(t, b)
    if not is_weight_of(rs, a, beta):
        return 0
    return _walton_space(cached_module(rs, a, max_dim), beta, b, k)


def affine_fold(rs: RootSystem, x: Weight, shifted_level: int) -> tuple[Weight | None, int]:
    """Fold x into the open fundamental alcove at the shifted level.

    Folds to the dominant chamber and reflects at <x, theta> = shifted_level
    until x is in the alcove, accumulating the sign; wall hits return (None, 0).
    """
    start, sign = x, 1
    for _ in range(_FOLD_LIMIT):
        x, parity = fold_dominant(rs, x)
        sign *= parity
        t = theta_pairing(rs, x)
        if 0 in x or t == shifted_level:
            return None, 0
        if t < shifted_level:
            return x, sign
        x = wsub(x, wscale(t - shifted_level, rs.theta))
        sign = -sign
    raise InternalError(f"affine folding of {start} at shifted level {shifted_level} did not end")


def _kac_walton_row(rs: RootSystem, k: int, lam: Weight, mu: Weight) -> dict[Weight, int]:
    """Every nonzero N^(k)nu_{lam,mu} from one tensor decomposition folded at k + h_vee."""
    shifted = k + rs.dual_coxeter
    row: dict[Weight, int] = {}
    for term, count in tensor_decompose(rs, lam, mu).terms.items():
        folded, sign = affine_fold(rs, wadd(term, rs.rho), shifted)
        if sign:
            nu = wsub(folded, rs.rho)
            row[nu] = row.get(nu, 0) + sign * count
    if any(c < 0 for c in row.values()):
        raise InternalError(f"negative Kac-Walton sum in the row {lam} x {mu}: {row}")
    return row


def kac_walton_coefficient(rs: RootSystem, k: int, lam: Weight, mu: Weight, nu: Weight) -> int:
    """Oracle: fold the tensor decomposition through the affine walls at k + h_vee."""
    lam, mu, nu = _check_triple(rs, k, lam, mu, nu)
    return _kac_walton_row(rs, k, lam, mu).get(nu, 0)


# -- Frenkel-Zhu backend on the explicit tensor product ------------------------

def _slice_pairs(mod_l: RepModule, mod_r: RepModule, gamma: Weight):
    """(b1, b2, dim V^lam_b1, dim V^mu_b2) with b1 + b2 = gamma, both present, read off the
    two diagrams in V^lam's diagram order, which is fixed for the module."""
    get = mod_r.diagram.table.get
    return [(b1, b2, d1, d2) for b1, d1 in mod_l.diagram.table.items()
            if (d2 := get(b2 := tuple(map(sub, gamma, b1))))]


def _slice_map(src, tgt, shift: Weight, left, right=None) -> RationalMatrix:
    """X (x) 1 + 1 (x) Y from the slice listed in src into the slice src + shift, listed in tgt.

    src and tgt are ``_slice_pairs`` lists. left(b1) is the block of X out of
    V^lam_{b1} and right(b2) that of Y out of V^mu_{b2}; each is read only where
    its target slot is present. right=None means Y = 0.
    """
    at = {(b1, b2): t for t, (b1, b2, _, _) in enumerate(tgt)}
    blocks = {}
    for s, (b1, b2, d1, d2) in enumerate(src):
        t = at.get((wadd(b1, shift), b2))
        if t is not None:
            blocks[t, s] = left(b1).kron(RationalMatrix.identity(d2))
        t = at.get((b1, wadd(b2, shift))) if right else None
        if t is not None:
            blocks[t, s] = RationalMatrix.identity(d1).kron(right(b2))
    return RationalMatrix.block([d1 * d2 for *_, d1, d2 in tgt],
                                [d1 * d2 for *_, d1, d2 in src], blocks)


def check_fz_cap(rs: RootSystem, lam: Weight, mu: Weight, max_fz_dim: int) -> None:
    """Refuse an FZ computation whose tensor product V^lam (x) V^mu exceeds the cap."""
    product_dim = weyl_dimension(rs, lam) * weyl_dimension(rs, mu)
    if product_dim > max_fz_dim:
        raise CapExceededError(
            f"dim V^{tuple(lam)} * dim V^{tuple(mu)} = {product_dim} > cap {max_fz_dim}"
        )


def fz_dimension(rs: RootSystem, k: int, lam: Weight, mu: Weight, nu: Weight,
                 max_fz_dim: int = DEFAULT_FZ_CAP,
                 max_dim: int = DEFAULT_DIM_CAP) -> int:
    """Oracle on tiny instances: the symmetric coefficient N^(k)_{lam,mu,nu}.

    Counts the u of weight -nu in V^lam (x) V^mu that every f_j (x) 1 + 1 (x) f_j
    kills (lowest weight vectors) and f_theta^p (x) 1 kills, p = k - <nu,theta> + 1:
    the slice dimension less one rank of those maps stacked. f_theta is the
    form-adjoint of e_theta and the form is positive definite, so these are the
    invariant maps that kill (e_theta^p V^lam) (x) V^mu. The theta power must act
    on the first tensor factor only (the coproduct variant computes a different,
    wrong number). Equals fusion_coefficient(lam, mu, nu*).
    """
    lam, mu, nu = _check_triple(rs, k, lam, mu, nu)
    check_fz_cap(rs, lam, mu, max_fz_dim)
    mod_l = cached_module(rs, lam, max_dim)
    mod_r = cached_module(rs, mu, max_dim)
    target = wneg(nu)
    pairs = _slice_pairs(mod_l, mod_r, target)
    down = lambda shift, *ops: _slice_map(  # the map out of the target slice into target + shift
        pairs, _slice_pairs(mod_l, mod_r, wadd(target, shift)), shift, *ops)
    maps = [down(wneg(alpha), partial(operator_power_block, mod_l, f"f{j}", 1),
                 partial(operator_power_block, mod_r, f"f{j}", 1))
            for j, alpha in enumerate(rs.simple_roots)]
    p = k - theta_pairing(rs, nu) + 1
    maps.append(down(wscale(-p, rs.theta), partial(operator_power_block, mod_l, "ftheta", p)))
    size = sum(d1 * d2 for *_, d1, d2 in pairs)
    return size - RationalMatrix.vstack(maps, size).rank()


def fusion_coefficient_via_fz(rs: RootSystem, k: int, lam: Weight, mu: Weight, nu: Weight,
                              max_fz_dim: int = DEFAULT_FZ_CAP,
                              max_dim: int = DEFAULT_DIM_CAP) -> int:
    """N^(k)nu_{lam,mu} through the Frenkel-Zhu backend (N_{lam,mu,nu*})."""
    return fz_dimension(rs, k, lam, mu, dual_weight(rs, tuple(nu)), max_fz_dim, max_dim)


class FusionTable(NamedTuple):
    """All structure constants N^(k)nu_{lam,mu} for one (type, level).

    ``skipped`` holds the (lam, mu) rows the fz backend left out because
    V^lam (x) V^mu is over its cap; it is empty for the other backends.
    """

    cartan_type: str
    level: int
    alcove: tuple[Weight, ...]
    coeffs: dict[tuple[Weight, Weight, Weight], int]
    skipped: frozenset[tuple[Weight, Weight]] = frozenset()

    def coefficient(self, lam: Weight, mu: Weight, nu: Weight) -> int:
        return self.coeffs.get((tuple(lam), tuple(mu), tuple(nu)), 0)


FUSION_BACKENDS = ("walton", "kacwalton", "fz")


def _walton_cells(rs: RootSystem, k: int, alcove: list[Weight], dims: dict[Weight, int],
                  max_dim: int) -> dict[tuple[Weight, Weight], dict[Weight, int]]:
    """{(lam, mu): {nu: N^(k)nu_{lam,mu}}} for the nonzero cells, one ``_class_value`` per class.

    (a, b, t = beta + b) is visited for beta a weight of V^a, only when dim V^a is the
    least of its current orbit and the orbits of b and t hold nothing smaller. A class
    of nonzero value passes on its member whose a has the least dimension in the class.
    """
    orbits = {w: current_orbit(rs, k, w) for w in alcove}
    if any(sorted(images) != alcove for images in zip(*orbits.values())):
        raise InternalError(f"a simple current of {rs} at level {k} does not permute the alcove")
    least = {w: min(dims[v] for v in orbits[w]) for w in alcove}
    cells: dict[tuple[Weight, Weight], dict[Weight, int]] = defaultdict(dict)
    seen: set[Triple] = set()
    for a in (a for a in alcove if dims[a] == least[a]):
        for b in (b for b in alcove if least[b] >= dims[a]):
            for t in (wadd(beta, b) for beta in weight_diagram(rs, a).table):
                if least.get(t, 0) < dims[a] or (a, b, t) in seen:  # 0: t is off the alcove
                    continue
                triples = _equivalent_triples(rs, k, a, b, t)
                seen |= triples
                if c := _class_value(rs, k, triples, max_dim):
                    for x, y, z in triples:
                        cells[x, y][z] = c
    return cells


def fusion_table(rs: RootSystem, k: int, backend: str = "walton",
                 max_dim: int = DEFAULT_DIM_CAP,
                 max_fz_dim: int = DEFAULT_FZ_CAP) -> FusionTable:
    """The full level-k table, built one (lam, mu) row at a time.

    Every alcove weight is checked against ``max_dim`` first, on every
    backend, by ``alcove_dims``. ``walton`` (production) ranks one Walton
    space per S3 x simple-current class of nonzero cells, on the member
    ``fusion_coefficient`` would choose, and writes its value into every
    member; ``kacwalton`` folds one tensor decomposition per row; ``fz`` runs
    the Frenkel-Zhu oracle on every cell, except in the rows its caps refuse,
    which it lists in ``skipped``. The two oracles use no symmetry.
    """
    check_level(k)
    if backend not in FUSION_BACKENDS:
        raise ParseError(f"unknown backend {backend!r}; choose from {', '.join(FUSION_BACKENDS)}")
    dims = alcove_dims(rs, k, max_dim)
    alcove = list(dims)
    # row(lam, mu) -> {nu: N^(k)nu_{lam,mu}}, absent nu counting as 0
    if backend == "walton":
        rows = _walton_cells(rs, k, alcove, dims, max_dim)
        row = lambda lam, mu: rows.get((lam, mu), {})
    elif backend == "kacwalton":
        row = partial(_kac_walton_row, rs, k)
    else:
        def row(lam: Weight, mu: Weight) -> dict[Weight, int]:
            return {nu: fusion_coefficient_via_fz(rs, k, lam, mu, nu, max_fz_dim, max_dim)
                    for nu in alcove}
    coeffs: dict[tuple[Weight, Weight, Weight], int] = {}
    skipped = set()
    for lam in alcove:
        for mu in alcove:
            try:
                cells = row(lam, mu)
            except CapExceededError:
                if backend != "fz":
                    raise
                skipped.add((lam, mu))
                continue
            for nu, c in sorted(cells.items()):
                if c:
                    coeffs[(lam, mu, nu)] = c
    return FusionTable(
        cartan_type=str(rs.cartan_type), level=k, alcove=tuple(alcove), coeffs=coeffs,
        skipped=frozenset(skipped),
    )
