"""Explicit irreducible modules with exact operator matrices.

A module is built weight space by weight space, walking down from the highest
weight vector. Basis vectors are honest f-monomials: the label (i1, ..., is)
means f_{i1} f_{i2} ... f_{is} applied to the highest weight vector. The
commutation relation e_i f_j = f_j e_i + delta_ij h_i gives e_i on every
spanning vector f_j b of a weight space from the blocks of the levels above,
and the contravariant form, (f_i u, w) = (u, e_i w), turns those into the
spanning Gram matrix. The form is positive definite, so one reduced row
echelon form of that Gram matrix does the rest: its pivot columns are the
basis (the first independent spanning monomials, in label order), its rows
are the lowering blocks, the coordinates of every spanning vector in that
basis, and e_i at the pivot columns is the raising block. No Gram matrix is
ever inverted, and bracket relations hold because the matrices are the true
module action. e_theta and f_theta are nested commutators of the simple
raisings and lowerings; f_theta, which only the lemma suite reads, is built
on first use.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .errors import CapExceededError, InternalError, PreconditionError
from .linalg import RationalMatrix
from .multiplicity import WeightDiagram, weight_diagram, weyl_dimension
from .rootdata import (
    RootSystem,
    Weight,
    root_lattice_depth,
    wadd,
    wneg,
    wscale,
)

DEFAULT_DIM_CAP = 3000

MonomialLabel = tuple[int, ...]


@dataclass(eq=False)
class RepModule:
    """V^lam with weight-graded basis, Gram matrices, and operator blocks.

    All maps are keyed by the source weight: ``lowering[(i, b)]`` is
    f_i : V_b -> V_{b - alpha_i}, ``raising[(i, b)]`` is e_i : V_b -> V_{b + alpha_i},
    and the theta blocks shift by +-theta. Immutable once built (e_theta is
    attached by build_theta_operators before the module is shared); the
    private dicts only memoise values derived from it, f_theta among them.
    """

    root_system: RootSystem
    highest: Weight
    diagram: WeightDiagram
    basis_index: dict[Weight, tuple[MonomialLabel, ...]]
    gram: dict[Weight, RationalMatrix]
    lowering: dict[tuple[int, Weight], RationalMatrix]
    raising: dict[tuple[int, Weight], RationalMatrix]
    theta_raising: dict[Weight, RationalMatrix] | None = None
    _op_blocks: dict[str, tuple] = field(default_factory=dict, repr=False)
    _powers: dict[tuple[str, Weight], tuple[RationalMatrix, ...]] = field(
        default_factory=dict, repr=False
    )

    @property
    def dimension(self) -> int:
        return sum(len(v) for v in self.basis_index.values())

    def dim_at(self, beta: Weight) -> int:
        return len(self.basis_index.get(tuple(beta), ()))

    @property
    def theta_lowering(self) -> dict[Weight, RationalMatrix]:
        """f_theta blocks, built on first use once build_theta_operators has run."""
        return _operator_blocks(self, "ftheta")[0]


def check_dim_cap(rs: RootSystem, lam: Weight, max_dim: int) -> int:
    """dim V^lam by the Weyl formula; CapExceededError when it is over max_dim."""
    dim = weyl_dimension(rs, lam)
    if dim > max_dim:
        raise CapExceededError(f"dim V^{tuple(lam)} = {dim} > cap {max_dim}")
    return dim


def build_module(rs: RootSystem, lam: Weight, max_dim: int = DEFAULT_DIM_CAP) -> RepModule:
    """Construct V^lam explicitly; rejects modules over the dimension cap."""
    lam = tuple(lam)
    dim = check_dim_cap(rs, lam, max_dim)
    diagram = weight_diagram(rs, lam)
    order = sorted(diagram.table, key=lambda nu: (root_lattice_depth(rs, nu, lam), nu))
    if order[0] != lam:
        raise InternalError(f"{order[0]} sorts above the highest weight {lam}")

    basis: dict[Weight, tuple[MonomialLabel, ...]] = {lam: ((),)}
    gram: dict[Weight, RationalMatrix] = {lam: RationalMatrix.identity(1)}
    lowering: dict[tuple[int, Weight], RationalMatrix] = {}
    raising: dict[tuple[int, Weight], RationalMatrix] = {}

    for beta in order[1:]:
        ups = {i: wadd(beta, a) for i, a in enumerate(rs.simple_roots) if wadd(beta, a) in basis}
        if not ups:
            raise InternalError(f"no way down to {beta}")
        dims = [len(basis[up]) for up in ups.values()]

        # e_i on the spanning vectors f_j b (b a basis vector of V_up_j), one block
        # V_up_j -> V_up_i per (i, j): e_i f_j b = f_j e_i b + d_ij <up_j, alpha_i^vee> b
        e_span = {}
        for r, (i, up_i) in enumerate(ups.items()):
            for c, (j, up_j) in enumerate(ups.items()):
                e_blk = raising.get((i, up_j))  # V_up_j -> V_{up_j + alpha_i} = V_{up_i + alpha_j}
                if e_blk is not None:
                    e_span[r, c] = lowering[(j, wadd(up_j, rs.simple_roots[i]))] @ e_blk
                if i == j and up_i[i]:
                    diag = RationalMatrix.identity(dims[r]).scale(up_i[i])
                    e_span[r, c] = e_span[r, c] + diag if (r, c) in e_span else diag
        # spanning Gram: (f_i a, f_j b) = (a, e_i f_j b)
        grams = [gram[up] for up in ups.values()]
        span_gram = RationalMatrix.block(
            dims, dims, {(r, c): grams[r] @ m for (r, c), m in e_span.items()}
        )
        if span_gram != span_gram.transpose():
            raise InternalError(f"Gram not symmetric at {beta}")

        # the form is positive definite on V_beta, so the relations among the spanning
        # vectors are those among the Gram columns: the rref pivots are the first-wins
        # basis and its rows are the coordinates of every spanning vector in that basis
        chosen, coords = span_gram.rref()
        target = diagram.table[beta]
        if len(chosen) != target:
            raise InternalError(f"rank {len(chosen)} != multiplicity {target} at {beta}")
        g_beta = span_gram.select(chosen, chosen)
        if not g_beta.is_positive_definite():
            raise InternalError(f"contravariant form not positive definite at {beta}")
        span = [(i,) + label for i, up in ups.items() for label in basis[up]]
        basis[beta] = tuple(span[s] for s in chosen)
        gram[beta] = g_beta
        e_rows = RationalMatrix.block(dims, dims, e_span)
        offset = 0
        for (i, up), d in zip(ups.items(), dims):
            part = range(offset, offset + d)
            lowering[(i, up)] = coords.select(range(target), part)
            raising[(i, beta)] = e_rows.select(part, chosen)
            offset += d

    module = RepModule(
        root_system=rs,
        highest=lam,
        diagram=diagram,
        basis_index=basis,
        gram=gram,
        lowering=lowering,
        raising=raising,
    )
    if module.dimension != dim:
        raise InternalError(f"built dim V^{lam} = {module.dimension} != Weyl dimension {dim}")
    return module


def build_theta_operators(rs: RootSystem, module: RepModule) -> RepModule:
    """Attach e_theta, the nested commutator of simple raisings; f_theta is built on first use."""
    theta_raising = _theta_blocks(module, "e")
    if module.highest != (0,) * rs.rank and all(blk.is_zero() for blk in theta_raising.values()):
        raise InternalError(f"e_theta vanished on V^{module.highest}")
    module.theta_raising = theta_raising
    return module


def _theta_blocks(module: RepModule, kind: str) -> dict[Weight, RationalMatrix]:
    """e_theta (kind "e") or f_theta (kind "f") as nested commutators along rs.theta_path.

    e_theta = [e_pn, ..., [e_p1, e_p0]]; the form-adjoint of [A, B] is [B*, A*],
    so f_theta = [[f_p0, f_p1], ..., f_pn]. Every weight whose image is a weight
    gets a block, zero or not.
    """
    rs = module.root_system
    path = rs.theta_path
    cur, shift = _operator_blocks(module, f"{kind}{path[0]}")
    for i in path[1:]:
        nxt, nshift = _operator_blocks(module, f"{kind}{i}")
        if kind == "e":
            cur, shift = _block_commutator(module, nxt, nshift, cur, shift)
        else:
            cur, shift = _block_commutator(module, cur, shift, nxt, nshift)
    if shift != (rs.theta if kind == "e" else wneg(rs.theta)):
        raise InternalError(f"theta path of {rs} ends at {shift}, not at +-theta = {rs.theta}")
    return {
        src: cur.get(src) or RationalMatrix.zeros(module.dim_at(wadd(src, shift)), len(labels))
        for src, labels in module.basis_index.items()
        if wadd(src, shift) in module.basis_index
    }


def _block_compose(module: RepModule, a_blocks, a_shift, b_blocks, b_shift):
    out = {}
    for src, mb in b_blocks.items():
        ma = a_blocks.get(wadd(src, b_shift))
        if ma is not None:
            out[src] = ma @ mb
    return out


def _block_commutator(module: RepModule, a_blocks, a_shift, b_blocks, b_shift):
    shift = wadd(a_shift, b_shift)
    ab = _block_compose(module, a_blocks, a_shift, b_blocks, b_shift)
    ba = _block_compose(module, b_blocks, b_shift, a_blocks, a_shift)
    out = {}
    for src in set(ab) | set(ba):
        tgt = wadd(src, shift)
        if tgt not in module.basis_index:
            continue
        rows, cols = module.dim_at(tgt), module.dim_at(src)
        first = ab.get(src)
        second = ba.get(src)
        if first is None:
            first = RationalMatrix.zeros(rows, cols)
        if second is None:
            second = RationalMatrix.zeros(rows, cols)
        out[src] = first - second
    return out, shift


def _operator_blocks(module: RepModule, op: str):
    """Source-keyed blocks plus weight shift for an operator id like "e0" or "ftheta"."""
    got = module._op_blocks.get(op)
    if got is None:  # only valid ids are ever stored, so the checks below still hold
        got = module._op_blocks[op] = _collect_operator_blocks(module, op)
    return got


def _collect_operator_blocks(module: RepModule, op: str):
    rs = module.root_system
    if op == "etheta" or op == "ftheta":
        if module.theta_raising is None:
            raise PreconditionError("theta operators not built for this module")
        if op == "etheta":
            return module.theta_raising, rs.theta
        return _theta_blocks(module, "f"), wneg(rs.theta)
    kind, idx = op[0], op[1:]
    if kind not in ("e", "f") or not idx.isdigit():
        raise PreconditionError(f"unknown operator id {op!r}")
    i = int(idx)
    if i >= rs.rank:
        raise PreconditionError(f"operator index {i} out of range for {rs}")
    if kind == "e":
        blocks = {b: mat for (j, b), mat in module.raising.items() if j == i}
        return blocks, rs.simple_roots[i]
    blocks = {b: mat for (j, b), mat in module.lowering.items() if j == i}
    return blocks, wneg(rs.simple_roots[i])


def operator_power_block(module: RepModule, op: str, p: int, beta: Weight) -> RationalMatrix:
    """Matrix of op^p out of V_beta (a zero-row matrix when the image space dies).

    The powers [1, op, op^2, ...] out of V_beta are memoised on the module and
    extended only as far as the largest p asked for, one block product per
    new power; once the image space dies the chain ends in a zero-row matrix.
    """
    beta = tuple(beta)
    if beta not in module.basis_index:
        raise PreconditionError(f"{beta} is not a weight of V^{module.highest}")
    if p < 0:
        raise PreconditionError("operator power must be nonnegative")
    blocks, shift = _operator_blocks(module, op)
    chain = module._powers.get((op, beta))
    if chain is None:
        chain = (RationalMatrix.identity(module.dim_at(beta)),)
    if p >= len(chain) and chain[-1].rows:
        # extend a copy and publish it whole, so concurrent readers never see a partial chain
        powers = list(chain)
        cur = wadd(beta, wscale(len(powers) - 1, shift))
        while len(powers) <= p and powers[-1].rows:
            tgt = wadd(cur, shift)
            blk = blocks.get(cur)
            if blk is None:
                blk = RationalMatrix.zeros(module.dim_at(tgt), module.dim_at(cur))
            powers.append(blk if len(powers) == 1 else blk @ powers[-1])
            cur = tgt
        chain = module._powers[(op, beta)] = tuple(powers)
    return chain[min(p, len(chain) - 1)]


def power_kernel(module: RepModule, op: str, p: int, beta: Weight) -> RationalMatrix:
    """Kernel basis of the p-fold operator block out of V_beta."""
    return operator_power_block(module, op, p, beta).kernel()


_MODULE_MEMO: dict[tuple[str, Weight], RepModule] = {}
_MODULE_LOCK = threading.Lock()


def cached_module(rs: RootSystem, lam: Weight, max_dim: int = DEFAULT_DIM_CAP) -> RepModule:
    """Shared, fully built (theta included) module; cap still applies per call."""
    lam = tuple(lam)
    key = (str(rs.cartan_type), lam)
    got = _MODULE_MEMO.get(key)
    if got is not None:
        # build_module checked that this equals the Weyl dimension
        if got.dimension > max_dim:
            raise CapExceededError(f"dim V^{lam} = {got.dimension} > cap {max_dim}")
        return got
    module = build_theta_operators(rs, build_module(rs, lam, max_dim))
    with _MODULE_LOCK:
        _MODULE_MEMO.setdefault(key, module)
    return _MODULE_MEMO[key]
