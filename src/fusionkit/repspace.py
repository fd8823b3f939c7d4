"""Explicit irreducible modules with exact operator matrices.

A module is built weight space by weight space, walking down from the highest
weight vector. Basis vectors are honest f-monomials: the label (i1, ..., is)
means f_{i1} f_{i2} ... f_{is} applied to the highest weight vector. The
commutation relation e_i f_j = f_j e_i + delta_ij h_i gives e_i on every
spanning vector f_j b of a weight space from the blocks of the levels above.
Below lam a vector is zero exactly when every e_i kills it, so one reduced row
echelon form of that raising map does the rest: its pivot columns are the
basis (the first independent spanning monomials, in label order), its rows
are the lowering blocks, the coordinates of every spanning vector in that
basis, and e_i at the pivot columns is the raising block. The build forms no
Gram matrix: ``gram`` reads the contravariant form, (f_i u, w) = (u, e_i w),
off the raising blocks of the complete module and checks it there. Bracket
relations hold because the matrices are the true module action.

Weight spaces are built on demand: reading V_beta walks up the weight diagram
and builds every unbuilt weight above it (its upper cone, gamma - beta in Q+),
by the same step, so every block equals that of the complete module. The public
maps complete the module first. Every module comes with e_theta and f_theta,
nested commutators of the simple raisings and lowerings taken one source weight
at a time and memoised on the module. ``cached_module`` checks the cap on every
call and shares one module per (root system, lam).
"""

from __future__ import annotations

import re
import threading

from .errors import CapExceededError, InternalError, PreconditionError
from .linalg import RationalMatrix
from .multiplicity import WeightDiagram, weight_diagram, weyl_dimension
from .rootdata import RootSystem, Weight, dual_weight, shared, wadd, wneg, wscale, wsub

DEFAULT_DIM_CAP = 3000

MonomialLabel = tuple[int, ...]


class RepModule:
    """V^lam with weight-graded basis and operator blocks; ``gram`` is derived on first read.

    All maps are keyed by the source weight: ``lowering[(i, b)]`` is f_i : V_b -> V_{b - alpha_i},
    ``raising[(i, b)]`` is e_i : V_b -> V_{b + alpha_i}, and the theta blocks shift by +-theta.
    ``_basis`` holds the built weights in build order, each after the weights one simple root
    above it; the private dicts grow under ``_lock`` and are never iterated while partial.
    """

    def __init__(self, root_system: RootSystem, highest: Weight, diagram: WeightDiagram):
        self.root_system, self.highest, self.diagram = root_system, highest, diagram
        self._basis: dict[Weight, tuple[MonomialLabel, ...]] = {highest: ((),)}
        self._gram: dict[Weight, RationalMatrix] | None = None
        self._lowering: dict[tuple[int, Weight], RationalMatrix] = {}
        self._raising: dict[tuple[int, Weight], RationalMatrix] = {}
        self._theta_steps: dict[str, tuple[tuple[Weight, Weight], ...]] | None = None
        self._theta: dict[tuple[str, int, Weight], RationalMatrix] = {}
        self._powers: dict[tuple[str, Weight], tuple[RationalMatrix, ...]] = {}
        self._lock = threading.Lock()

    @property
    def dimension(self) -> int:
        # the diagram total, which weight_diagram checked against the Weyl dimension
        return self.diagram.dimension

    def dim_at(self, beta: Weight) -> int:
        return self.diagram.table.get(tuple(beta), 0)

    # the public maps complete the module before they are read
    basis_index = property(lambda self: _complete(self)._basis)
    gram = property(lambda self: _form(_complete(self)))
    lowering = property(lambda self: _complete(self)._lowering)
    raising = property(lambda self: _complete(self)._raising)
    theta_raising = property(lambda self: _theta_map(self, "etheta"))
    theta_lowering = property(lambda self: _theta_map(self, "ftheta"))


def check_dim_cap(rs: RootSystem, lam: Weight, max_dim: int) -> int:
    """dim V^lam by the Weyl formula; CapExceededError when it is over max_dim."""
    dim = weyl_dimension(rs, lam)
    if dim > max_dim:
        raise CapExceededError(f"dim V^{tuple(lam)} = {dim} > cap {max_dim}")
    return dim


def build_module(rs: RootSystem, lam: Weight, max_dim: int = DEFAULT_DIM_CAP) -> RepModule:
    """Start V^lam at its highest weight, with theta; rejects modules over the dimension cap.

    The other weight spaces, and the theta blocks, are built when they are first read.
    """
    lam = tuple(lam)
    check_dim_cap(rs, lam, max_dim)
    return build_theta_operators(rs, RepModule(rs, lam, weight_diagram(rs, lam)))


def _complete(module: RepModule) -> RepModule:
    """Build every weight space: the upper cone of the lowest weight, w0 lam = -lam*."""
    _ensure(module, wneg(dual_weight(module.root_system, module.highest)))
    return module


def _ensure(module: RepModule, beta: Weight) -> None:
    """Build V_beta and every unbuilt weight above it, walking up the weight diagram from beta.

    The walk's top pushes its unbuilt weights one simple root up, or is built when it has none.
    That builds the upper cone: for weights beta < gamma, delta = gamma - beta = sum c_i alpha_i has
    (delta, delta) > 0, so (delta, alpha_i) > 0 for an i with c_i > 0; <gamma, alpha_i^vee> > 0 and
    gamma - alpha_i is a weight, or <beta, alpha_i^vee> < 0 and beta + alpha_i is (Humphreys 21.3).
    By induction a simple-root chain climbs to gamma, all unbuilt: built weights are upward closed.
    """
    if beta in module._basis:
        return
    with module._lock:  # if another thread built beta meanwhile, beta just pops
        rs, basis, table, walk = module.root_system, module._basis, module.diagram.table, [beta]
        while walk:
            top = walk[-1]
            ups = [u for a in rs.simple_roots if (u := wadd(top, a)) in table and u not in basis]
            walk.extend(ups)  # each lies above the whole walk, so no weight is pushed twice
            if not ups and walk.pop() not in basis:
                _build_weight(module, top)
        if len(basis) == len(table):
            lam, built = module.highest, sum(map(len, basis.values()))
            if built != (dim := weyl_dimension(rs, lam)):
                raise InternalError(f"built dim V^{lam} = {built} != Weyl dimension {dim}")


def _build_weight(module: RepModule, beta: Weight) -> None:
    """V_beta with the lowering blocks into it and the raising blocks out of it.

    Every weight above beta is built; V_beta is published in ``_basis`` last.
    """
    rs, basis = module.root_system, module._basis
    lowering, raising = module._lowering, module._raising
    ups = {i: wadd(beta, a) for i, a in enumerate(rs.simple_roots)
           if wadd(beta, a) in module.diagram.table}
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
    # below lam a vector is zero exactly when every e_i kills it, so the relations among the
    # spanning vectors are the null space of e_rows: the rref pivots are the first-wins basis
    # and its rows are the coordinates of every spanning vector in that basis
    e_rows = RationalMatrix.block(dims, dims, e_span)
    chosen, coords = e_rows.rref()
    target = module.diagram.table[beta]
    if len(chosen) != target:
        raise InternalError(f"rank {len(chosen)} != multiplicity {target} at {beta}")
    span = [(i,) + label for i, up in ups.items() for label in basis[up]]
    offset = 0
    for (i, up), d in zip(ups.items(), dims):
        part = range(offset, offset + d)
        lowering[(i, up)] = coords.select(range(target), part)
        raising[(i, beta)] = e_rows.select(part, chosen)
        offset += d
    basis[beta] = tuple(span[s] for s in chosen)


def _form(module: RepModule) -> dict[Weight, RationalMatrix]:
    """The Gram matrix of each weight space, read off the raising blocks and checked.

    (f_i a, w) = (a, e_i w): the row of f_i a in G_beta is row a of G_{beta+alpha_i} @ e_i.
    """
    if module._gram is None:
        basis, gram = module._basis, {module.highest: RationalMatrix.identity(1)}
        for beta in list(basis)[1:]:  # build order; the labels of V_beta run in order of s[0]
            ups = {s[0]: wadd(beta, module.root_system.simple_roots[s[0]]) for s in basis[beta]}
            g = gram[beta] = RationalMatrix.vstack(
                gram[up].select([basis[up].index(s[1:]) for s in basis[beta] if s[0] == i],
                                range(len(basis[up]))) @ module._raising[(i, beta)]
                for i, up in ups.items())
            if g != g.transpose() or not g.is_positive_definite():
                raise InternalError(f"contravariant form not symmetric positive definite at {beta}")
        module._gram = gram
    return module._gram


def build_theta_operators(rs: RootSystem, module: RepModule) -> RepModule:
    """Attach e_theta, the nested commutator of simple raisings along rs.theta_path.

    ``build_module`` ends here, and a second call changes nothing. The blocks
    of e_theta and f_theta are built one source weight at a time when first read.
    """
    shifts, total = [], (0,) * rs.rank
    for i in rs.theta_path:
        total = wadd(total, rs.simple_roots[i])
        shifts.append(total)
    if total != rs.theta:
        raise InternalError(f"theta path of {rs} ends at {total}, not at theta = {rs.theta}")
    module._theta_steps = {  # per kind, the (level, simple) weight shifts of each nesting level
        kind: tuple((wscale(sign, s), wscale(sign, rs.simple_roots[i]))
                    for s, i in zip(shifts, rs.theta_path)) for kind, sign in (("e", 1), ("f", -1))}
    return module


def _theta_block(module: RepModule, kind: str, m: int, src: Weight) -> RationalMatrix:
    """The block out of V_src of the m-th nested commutator along rs.theta_path.

    With path p0, ..., pn: E_0 = e_p0 and E_m = [e_pm, E_{m-1}], so E_n = e_theta;
    the form-adjoint of [A, B] is [B*, A*], so f_theta = F_n with F_0 = f_p0 and
    F_m = [F_{m-1}, f_pm]. A product is taken only through a weight space that exists.
    """
    key = (kind, m, src)
    got = module._theta.get(key)
    if got is not None:
        return got
    rs, table, steps = module.root_system, module.diagram.table, module._theta_steps[kind]
    rows, cols = table.get(wadd(src, steps[m][0]), 0), table.get(src, 0)
    i = rs.theta_path[m]
    if not rows or not cols:
        got = RationalMatrix.zeros(rows, cols)
    elif m == 0:
        got = _block(module, kind, i, src)
    else:  # simple . nested - nested . simple is E_m for "e" and -F_m for "f"
        zero = RationalMatrix.zeros(rows, cols)
        via_nested, via_simple = wadd(src, steps[m - 1][0]), wadd(src, steps[m][1])
        first = (_block(module, kind, i, via_nested) @ _theta_block(module, kind, m - 1, src)
                 if via_nested in table else zero)
        second = (_theta_block(module, kind, m - 1, via_simple) @ _block(module, kind, i, src)
                  if via_simple in table else zero)
        got = first - second if kind == "e" else second - first
    # e_theta f_theta v_lam = <lam, theta> v_lam, so e_theta is nonzero out of lam - theta
    if kind == "e" and m == len(steps) - 1 and src == wsub(module.highest, rs.theta) \
            and cols and got.is_zero():
        raise InternalError(f"e_theta vanished on V^{module.highest}")
    module._theta[key] = got
    return got


def _parse_op(module: RepModule, op: str) -> tuple[str, int | None, Weight]:
    """(kind, simple index or None for theta, weight shift) of an id like "e0" or "ftheta"."""
    rs = module.root_system
    kind, idx = op[:1], op[1:]
    if op in ("etheta", "ftheta"):
        i, shift = None, rs.theta
    elif not re.fullmatch(r"[ef](0|[1-9][0-9]*)", op):  # ASCII, no leading zero: one id each
        raise PreconditionError(f"unknown operator id {op!r}")
    elif int(idx) >= rs.rank:
        raise PreconditionError(f"operator index {int(idx)} out of range for {rs}")
    else:
        i, shift = int(idx), rs.simple_roots[int(idx)]
    return kind, i, (shift if kind == "e" else wneg(shift))


def _block(module: RepModule, kind: str, i: int | None, src: Weight) -> RationalMatrix:
    """e_i or f_i (e_theta or f_theta when i is None) out of the weight space V_src.

    Builds the weights the block is read from; a zero-row matrix where the image
    is not a weight.
    """
    if i is None:
        return _theta_block(module, kind, len(module._theta_steps[kind]) - 1, src)
    step = module.root_system.simple_roots[i]
    tgt = wadd(src, step) if kind == "e" else wsub(src, step)
    if tgt not in module.diagram.table:
        return RationalMatrix.zeros(0, module.diagram.table[src])
    if kind == "e":
        _ensure(module, src)
        return module._raising[(i, src)]
    _ensure(module, tgt)
    return module._lowering[(i, src)]


def _theta_map(module: RepModule, op: str) -> dict[Weight, RationalMatrix]:
    """The "etheta" or "ftheta" blocks of the complete module, keyed by source weight."""
    kind, _, shift = _parse_op(module, op)
    weights = module.basis_index
    return {src: _block(module, kind, None, src) for src in weights if wadd(src, shift) in weights}


def operator_power_block(module: RepModule, op: str, p: int, beta: Weight) -> RationalMatrix:
    """Matrix of op^p out of V_beta (a zero-row matrix when the image space dies).

    The powers [1, op, op^2, ...] out of V_beta are memoised on the module and
    extended only as far as the largest p asked for, one block product per
    new power; once the image space dies the chain ends in a zero-row matrix.
    """
    beta = tuple(beta)
    if beta not in module.diagram.table:
        raise PreconditionError(f"{beta} is not a weight of V^{module.highest}")
    if p < 0:
        raise PreconditionError("operator power must be nonnegative")
    chain = module._powers.get((op, beta))  # only valid ids are ever stored
    if chain is None or (p >= len(chain) and chain[-1].rows):
        # extend a copy and publish it whole, so concurrent readers never see a partial chain
        kind, i, shift = _parse_op(module, op)
        powers = list(chain or (RationalMatrix.identity(module.dim_at(beta)),))
        cur = wadd(beta, wscale(len(powers) - 1, shift))
        while len(powers) <= p and powers[-1].rows:
            blk = _block(module, kind, i, cur)
            powers.append(blk if len(powers) == 1 else blk @ powers[-1])
            cur = wadd(cur, shift)
        chain = module._powers[(op, beta)] = tuple(powers)
    return chain[min(p, len(chain) - 1)]


_MODULE_MEMO: dict[tuple[RootSystem, Weight], RepModule] = {}


def cached_module(rs: RootSystem, lam: Weight, max_dim: int = DEFAULT_DIM_CAP) -> RepModule:
    """The shared V^lam, built as far as it is read; the cap is checked first on every call."""
    lam = tuple(lam)
    check_dim_cap(rs, lam, max_dim)
    return shared(_MODULE_MEMO, (rs, lam), lambda: build_module(rs, lam, max_dim))
