import re
from fractions import Fraction
from math import comb, factorial

import pytest

from fusionkit import (
    CapExceededError,
    PreconditionError,
    build_module,
    build_theta_operators,
    build_root_system,
    cached_module,
    operator_power_block,
    weight_diagram,
)
from fusionkit.errors import InternalError
from fusionkit.linalg import RationalMatrix
from fusionkit.rootdata import root_lattice_coords, wadd, wneg, wscale, wsub


def _block(module, op, shift, src):
    if module.dim_at(src) == 0:
        return RationalMatrix.zeros(module.dim_at(wadd(src, shift)), 0)
    return operator_power_block(module, op, 1, src)


def _det(mat):
    n = mat.rows
    if n == 0:
        return Fraction(1)
    if n == 1:
        return mat[0, 0]
    total = Fraction(0)
    for j in range(n):
        if not mat[0, j]:
            continue
        minor = RationalMatrix(
            [[mat[i, c] for c in range(n) if c != j] for i in range(1, n)], n - 1
        )
        total += (-1) ** j * mat[0, j] * _det(minor)
    return total


def test_sl2_module_closed_form(a1):
    # monomial basis f^i v; dividing by i! recovers the textbook action
    for m in range(6):
        module = cached_module(a1, (m,))
        for i in range(m + 1):
            beta = (m - 2 * i,)
            assert module.basis_index[beta] == ((0,) * i,)
            assert module.gram[beta][0, 0] == factorial(i) ** 2 * comb(m, i)
        for i in range(m):
            f = module.lowering[(0, (m - 2 * i,))]
            assert f[0, 0] == 1  # f . f^i v = f^(i+1) v
        for i in range(1, m + 1):
            e = module.raising[(0, (m - 2 * i,))]
            assert e[0, 0] == i * (m - i + 1)
        # normalized: f v_i = (i+1) v_{i+1}, e v_i = (m-i+1) v_{i-1}, (v_i,v_i) = C(m,i)
        for i in range(m):
            scale = Fraction(factorial(i), factorial(i + 1))
            assert module.lowering[(0, (m - 2 * i,))][0, 0] / scale == i + 1
        for i in range(m + 1):
            norm = module.gram[(m - 2 * i,)][0, 0] / factorial(i) ** 2
            assert norm == comb(m, i)


def test_dimensions_match_diagram(a2, b2):
    for rs, lam in ((a2, a2.theta), (a2, (2, 1)), (b2, (1, 1))):
        module = cached_module(rs, lam)
        diagram = weight_diagram(rs, lam)
        assert set(module.basis_index) == set(diagram.table)
        for beta, mult in diagram.table.items():
            assert module.dim_at(beta) == mult
            labels = module.basis_index[beta]
            assert len(set(labels)) == len(labels)


def test_adjoint_a2_golden_basis(a2):
    module = cached_module(a2, a2.theta)
    assert module.basis_index == {
        (1, 1): ((),),
        (-1, 2): ((0,),),
        (2, -1): ((1,),),
        (0, 0): ((0, 1), (1, 0)),
        (-2, 1): ((0, 0, 1),),
        (1, -2): ((1, 0, 1),),
        (-1, -1): ((0, 1, 0, 1),),
    }
    assert module.gram[(0, 0)] == RationalMatrix([[2, 1], [1, 2]])


@pytest.mark.parametrize("name,lam", [("A2", (1, 1)), ("A2", (2, 1)), ("B2", (1, 1))])
def test_gram_positive_definite(name, lam):
    rs = build_root_system(name)
    module = cached_module(rs, lam)
    for beta, gram in module.gram.items():
        assert gram == gram.transpose()
        for k in range(1, gram.rows + 1):
            leading = RationalMatrix([[gram[i, j] for j in range(k)] for i in range(k)])
            assert _det(leading) > 0, (beta, k)


@pytest.mark.parametrize("src, factor", [((0, 0), 2), ((-1, 2), -1)])
def test_reading_gram_checks_the_form_it_derives_from_the_raising_blocks(a2, src, factor):
    """Scaling one raising block of V^(1,1) breaks the form read off it: at (0, 0), where
    e_0 and e_1 both give rows, G is no longer symmetric; on the line (-1, 2), G = (-1)."""
    module = build_module(a2, (1, 1))
    module._raising[(0, src)] = module.raising[(0, src)].scale(factor)
    with pytest.raises(InternalError, match=re.escape(f"at {src}")):
        module.gram


@pytest.mark.parametrize("name,lam", [
    ("A1", (3,)), ("A2", (1, 1)), ("A2", (2, 0)), ("G2", (1, 1)), ("B2", (1, 1)), ("C3", (1, 0, 1)),
])
def test_contravariance_adjoint_pairs(name, lam):
    rs = build_root_system(name)
    module = cached_module(rs, lam)
    for (i, src), f in module.lowering.items():
        dst = wsub(src, rs.simple_roots[i])
        e = module.raising[(i, dst)]
        assert module.gram[src] @ e == f.transpose() @ module.gram[dst]
    for src, f in module.theta_lowering.items():
        tgt = wsub(src, rs.theta)
        e = module.theta_raising[tgt]
        assert module.gram[tgt] @ f == e.transpose() @ module.gram[src]


@pytest.mark.parametrize("name,lam", [("A1", (4,)), ("A2", (1, 1)), ("A2", (2, 1)), ("B2", (0, 1))])
def test_bracket_relations(name, lam):
    rs = build_root_system(name)
    module = cached_module(rs, lam)
    for beta in module.basis_index:
        d = module.dim_at(beta)
        for i in range(rs.rank):
            for j in range(rs.rank):
                ai, aj = rs.simple_roots[i], rs.simple_roots[j]
                down = wsub(beta, aj)
                up = wadd(beta, ai)
                first = _block(module, f"e{i}", ai, down) @ _block(module, f"f{j}", wneg(aj), beta)
                second = _block(module, f"f{j}", wneg(aj), up) @ _block(module, f"e{i}", ai, beta)
                bracket = first - second
                if i == j:
                    assert bracket == RationalMatrix.identity(d).scale(beta[i])
                else:
                    assert bracket.is_zero()


@pytest.mark.parametrize("name,lam", [
    ("A1", (3,)), ("A2", (1, 1)), ("A2", (2, 1)), ("G2", (1, 1)), ("B2", (1, 1)), ("C3", (1, 0, 1)),
])
def test_ftheta_commutes_with_lowerings(name, lam):
    rs = build_root_system(name)
    module = cached_module(rs, lam)
    nth = wneg(rs.theta)
    for beta in module.basis_index:
        for i in range(rs.rank):
            ai = rs.simple_roots[i]
            first = _block(module, "ftheta", nth, wsub(beta, ai)) @ _block(
                module, f"f{i}", wneg(ai), beta
            )
            second = _block(module, f"f{i}", wneg(ai), wadd(beta, nth)) @ _block(
                module, "ftheta", nth, beta
            )
            assert (first - second).is_zero()


def test_theta_operator_examples(a1, a2):
    m1 = cached_module(a1, (3,))
    for src, blk in m1.theta_raising.items():
        assert blk == m1.raising[(0, src)]  # theta = alpha_1 on sl2
    mth = cached_module(a2, a2.theta)
    assert not mth.theta_raising[(0, 0)].is_zero()
    # nothing above the highest weight
    assert operator_power_block(mth, "etheta", 1, a2.theta).rows == 0
    assert operator_power_block(mth, "etheta", 1, a2.theta).kernel().cols == 1


def test_power_block_kernel_sl2_closed_form(a1):
    for m in range(6):
        module = cached_module(a1, (m,))
        for i in range(m + 1):
            beta = (m - 2 * i,)
            assert operator_power_block(module, "e0", i + 1, beta).kernel().cols == 1
            assert operator_power_block(module, "e0", i, beta).kernel().cols == 0


def test_power_block_kernel_theta_singlet(a2):
    module = cached_module(a2, a2.theta)
    assert operator_power_block(module, "etheta", 1, (0, 0)).kernel().cols == 1


@pytest.mark.parametrize("name, k", [("A2", 4), ("B2", 3), ("C3", 2), ("G2", 3)])
def test_a_root_vector_power_has_maximal_rank_read_off_the_diagram(name, k):
    """e^n : V_beta -> V_{beta+n alpha} has rank min(dim V_beta, dim V_{beta+n alpha}) for every
    simple root and theta, n up to one past the string: the sl2 rule ``_walton_space`` reads."""
    from fusionkit import level_alcove, weight_string

    rs = build_root_system(name)
    directions = [(f"e{j}", alpha) for j, alpha in enumerate(rs.simple_roots)]
    for lam in level_alcove(rs, k):
        module = cached_module(rs, lam)
        for beta, dim in module.diagram.table.items():
            for op, alpha in directions + [("etheta", rs.theta)]:
                for n in range(1, weight_string(module.diagram, beta, alpha).up + 2):
                    rank = operator_power_block(module, op, n, beta).rank()
                    target = module.dim_at(wadd(beta, wscale(n, alpha)))
                    assert rank == min(dim, target), (lam, beta, op, n)


def test_power_block_validation(a2):
    module = cached_module(a2, (1, 0))
    with pytest.raises(PreconditionError):
        operator_power_block(module, "e0", 1, (5, 5))
    with pytest.raises(PreconditionError):
        operator_power_block(module, "q0", 1, (1, 0))
    with pytest.raises(PreconditionError):
        operator_power_block(module, "e7", 1, (1, 0))
    with pytest.raises(PreconditionError, match="nonnegative"):
        operator_power_block(module, "e0", -1, (1, 0))


def test_bad_operator_ids_raise_every_time_and_valid_ids_give_equal_blocks(a2):
    module = build_module(a2, (1, 1))  # built with theta
    for _ in range(2):
        for op in ("q0", "e7", "e"):
            with pytest.raises(PreconditionError):
                operator_power_block(module, op, 2, (1, 1))
    assert operator_power_block(module, "f0", 2, (1, 1)) == operator_power_block(module, "f0", 2, (1, 1))
    build_theta_operators(a2, module)  # a second call changes nothing
    with pytest.raises(PreconditionError):
        operator_power_block(module, "q0", 2, (1, 1))
    up = operator_power_block(module, "etheta", 1, (-1, -1))
    assert (up.rows, up.cols) == (2, 1) and not up.is_zero()  # V_(-1,-1) -> V_(0,0)
    assert operator_power_block(module, "etheta", 1, (-1, -1)) == up
    assert operator_power_block(module, "etheta", 2, (-1, -1)) == \
        operator_power_block(module, "etheta", 1, (0, 0)) @ up


@pytest.mark.parametrize("op", ["e\u0661", "e01", "e\u00b2"])  # int() reads these as 1, 1, error
def test_operator_ids_are_ascii_indices_without_leading_zeros(a2, op):
    module = cached_module(a2, (1, 1))
    with pytest.raises(PreconditionError, match=f"unknown operator id {op!r}"):
        operator_power_block(module, op, 1, (1, 1))


def test_every_operator_id_form_is_read(a2):
    module = cached_module(a2, (1, 1))
    assert not operator_power_block(module, "e0", 1, (-1, 2)).is_zero()  # V_(-1,2) -> V_(1,1)
    assert not operator_power_block(module, "f1", 1, (1, 1)).is_zero()
    assert not operator_power_block(module, "etheta", 1, (-1, -1)).is_zero()
    assert not operator_power_block(module, "ftheta", 1, (1, 1)).is_zero()

def test_dimension_cap(a2):
    with pytest.raises(CapExceededError):
        build_module(a2, (3, 3), max_dim=10)
    with pytest.raises(CapExceededError):
        cached_module(a2, (9, 9), max_dim=100)
    cached_module(a2, (1, 1))
    with pytest.raises(CapExceededError, match="= 8 > cap 7"):  # a memo hit is capped too
        cached_module(a2, (1, 1), max_dim=7)
    with pytest.raises(PreconditionError):
        build_module(a2, (-1, 0))


def test_modules_and_walton_tables_invert_no_matrix(monkeypatch, g2):
    """Raising blocks come from e_i f_j = f_j e_i + d_ij h_i and f_theta is built only on
    request, so neither a module nor a Walton table inverts a Gram matrix."""
    from fusionkit import fusion_table, repspace

    c3 = build_root_system("C3")  # the root data inverts its Cartan matrix, before the patch

    def refuse(self):
        raise AssertionError("RationalMatrix.inverse called")

    monkeypatch.setattr(RationalMatrix, "inverse", refuse)
    monkeypatch.setattr(repspace, "_MODULE_MEMO", {})
    cached_module(g2, (2, 2))
    cached_module(c3, (1, 0, 1))
    fusion_table(g2, 3)
    for m in repspace._MODULE_MEMO.values():
        assert all(op != "ftheta" for op, _ in m._powers)
        assert all(kind == "e" for kind, *_ in m._theta)


def test_theta_augmentation_is_idempotent_surface(a1):
    module = build_module(a1, (2,))
    before = module.theta_raising
    built = build_theta_operators(a1, module)
    assert built is module and module.theta_raising == before


def test_lemma_orthogonal_split_mini(a1):
    # V(3) = ker(f^p) + im(e^p), orthogonal, at every p
    module = cached_module(a1, (3,))
    for p in range(1, 5):
        ker_dims = 0
        im_dims = 0
        for beta in module.basis_index:
            ker_dims += operator_power_block(module, "f0", p, beta).kernel().cols
            src = wsub(beta, (2 * p,))
            if src in module.basis_index:
                im_dims += operator_power_block(module, "e0", p, src).rank()
        assert ker_dims + im_dims == 4


def test_lemma_split_sees_e_blocks_whose_image_is_sheared(monkeypatch):
    """Shearing V_beta under each e^p image keeps every rank, so only the orthogonality
    checks can see it, and those meet only where a weight space has dimension > 1."""
    from fusionkit import verify

    def sheared(module, op, p, beta):
        blk = operator_power_block(module, op, p, beta)
        n = blk.rows
        if op[0] != "e" or n < 2:
            return blk
        return RationalMatrix([[int(i == j or (i, j) == (1, 0)) for j in range(n)]
                               for i in range(n)]) @ blk

    monkeypatch.setattr(verify, "operator_power_block", sheared)
    report = verify.SuiteReport("lemmas")
    verify._lemma_orthogonal_split(report)
    assert report.failures
    assert all("not orthogonal to im(e^p)" in f for f in report.failures)


def test_lemma_kernel_duality_mini(a2):
    from fusionkit.rootdata import root_pairing

    module = cached_module(a2, a2.theta)
    for beta in module.basis_index:
        for e_op, f_op, alpha in (("e0", "f0", a2.simple_roots[0]), ("etheta", "ftheta", a2.theta)):
            pair = int(root_pairing(a2, beta, alpha))
            for p in range(max(0, -pair), 4):
                assert (
                    operator_power_block(module, e_op, p, beta).kernel().cols
                    == operator_power_block(module, f_op, p + pair, beta).kernel().cols
                )


def test_operator_blocks_map_between_recorded_bases(a2, b2):
    for rs, lam in ((a2, (2, 1)), (b2, (1, 1))):
        module = cached_module(rs, lam)
        for (i, src), f in module.lowering.items():
            assert f.cols == module.dim_at(src)
            assert f.rows == module.dim_at(wsub(src, rs.simple_roots[i]))
        for (i, src), e in module.raising.items():
            assert e.cols == module.dim_at(src)
            assert e.rows == module.dim_at(wadd(src, rs.simple_roots[i]))
        for src, blk in module.theta_raising.items():
            assert blk.cols == module.dim_at(src)
            assert blk.rows == module.dim_at(wadd(src, rs.theta))


def test_concurrent_module_and_diagram_access(a2):
    import threading

    errors = []

    def worker(lam):
        try:
            module = cached_module(a2, lam)
            assert module.dimension == weight_diagram(a2, lam).dimension
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    lams = [(2, 2), (3, 1), (1, 3), (4, 0)] * 3
    threads = [threading.Thread(target=worker, args=(lam,)) for lam in lams]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


def _power_from_scratch(module, op, p, beta):
    """op^p out of V_beta as p fresh block products, without the module's memo."""
    rs = module.root_system
    if op.endswith("theta"):
        blocks = module.theta_raising if op[0] == "e" else module.theta_lowering
        shift = rs.theta
    else:
        i = int(op[1:])
        source = module.raising if op[0] == "e" else module.lowering
        blocks = {b: m for (j, b), m in source.items() if j == i}
        shift = rs.simple_roots[i]
    if op[0] == "f":
        shift = wneg(shift)
    src_dim = module.dim_at(beta)
    mat, cur = RationalMatrix.identity(src_dim), beta
    for _ in range(p):
        tgt = wadd(cur, shift)
        if not module.dim_at(tgt):
            return RationalMatrix.zeros(0, src_dim)
        blk = blocks.get(cur, RationalMatrix.zeros(module.dim_at(tgt), module.dim_at(cur)))
        mat, cur = blk @ mat, tgt
    return mat


@pytest.mark.parametrize("name, lam", [("A2", (1, 1)), ("A2", (2, 1)), ("G2", (1, 0)), ("G2", (0, 1))])
@pytest.mark.parametrize("powers", [range(4, -1, -1), range(5)], ids=["descending", "ascending"])
def test_memoised_power_blocks_equal_fresh_products(name, lam, powers):
    rs = build_root_system(name)
    module = build_theta_operators(rs, build_module(rs, lam))  # fresh, empty memo
    ops = [f"{k}{i}" for k in "ef" for i in range(rs.rank)] + ["etheta", "ftheta"]
    for op in ops:
        for beta in sorted(module.basis_index):
            for p in powers:
                got = operator_power_block(module, op, p, beta)
                assert got == _power_from_scratch(module, op, p, beta), (op, beta, p)
                assert got.cols == module.dim_at(beta)


def test_concurrent_power_chain_extension_stays_correct(a2):
    import random
    import sys
    import threading

    module = build_theta_operators(a2, build_module(a2, (2, 1)))  # fresh, empty memo
    ops = ["e0", "e1", "f0", "f1", "etheta", "ftheta"]
    expected = {
        (op, beta, p): _power_from_scratch(module, op, p, beta)
        for op in ops for beta in module.basis_index for p in range(5)
    }
    errors = []

    def worker(seed):
        keys = list(expected)
        random.Random(seed).shuffle(keys)
        for key in keys:
            op, beta, p = key
            if operator_power_block(module, op, p, beta) != expected[key]:
                errors.append(key)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


# -- build_module against the first-wins Gram-Schmidt it replaced -------------
#
# The reference below is the list-of-Fraction code build_module used before it
# took the basis and the lowering blocks from one reduced row echelon form:
# orthogonalise the spanning vectors in label order, keep each one of positive
# norm, then solve for every spanning vector's coordinates in the kept ones.

def _frac_product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def _reference_greedy_independent(sg, total, target):
    chosen = []
    ortho = []
    for s in range(total):
        v = [Fraction(0)] * total
        v[s] = Fraction(1)
        for u, nsq in ortho:
            c = sum(sg[s][t] * u[t] for t in range(total) if u[t]) / nsq
            if c:
                v = [a - c * b for a, b in zip(v, u)]
        nv = sum(v[s] * sum(sg[s][t] * v[t] for t in range(total)) for s in range(total))
        assert nv >= 0
        if nv > 0:
            chosen.append(s)
            ortho.append((v, nv))
            if len(chosen) == target:
                break
    return chosen


@pytest.mark.parametrize("name, lam", [
    ("A2", (2, 1)), ("B2", (1, 1)), ("G2", (1, 1)), ("C3", (1, 0, 1)),
    # deeper modules: the reference picks its basis from the spanning Gram, the build from e_rows
    ("G2", (2, 1)), ("B3", (1, 0, 1)), ("F4", (0, 0, 0, 1)),
])
def test_basis_and_lowering_match_fraction_gram_schmidt(name, lam):
    rs = build_root_system(name)
    module = cached_module(rs, lam)
    for beta, labels in module.basis_index.items():
        if beta == lam:
            continue
        ups = {i: wadd(beta, a) for i, a in enumerate(rs.simple_roots)
               if wadd(beta, a) in module.basis_index}
        span = [((i,) + label, i, up) for i, up in ups.items() for label in module.basis_index[up]]
        # (f_i a, f_j b) = d_ij <up_i, alpha_i>(a, b) + (a, f_j e_i b), from the levels above
        rows = []
        for i, up_i in ups.items():
            gi = module.gram[up_i].data
            row_blocks = []
            for j, up_j in ups.items():
                blk = [[Fraction(0)] * module.dim_at(up_j) for _ in range(module.dim_at(up_i))]
                e = module.raising.get((i, up_j))
                if e is not None:
                    f = module.lowering[(j, wadd(up_j, rs.simple_roots[i]))]
                    blk = _frac_product(gi, _frac_product(f.data, e.data))
                if i == j:
                    blk = [[x + up_i[i] * g for x, g in zip(r1, r2)] for r1, r2 in zip(blk, gi)]
                row_blocks.append(blk)
            for a in range(module.dim_at(up_i)):
                rows.append([x for blk in row_blocks for x in blk[a]])
        chosen = _reference_greedy_independent(rows, len(span), len(labels))
        assert tuple(span[s][0] for s in chosen) == labels
        g = [[rows[a][b] for b in chosen] for a in chosen]
        assert module.gram[beta].data == tuple(map(tuple, g))
        # each lowering block L solves G L = (chosen rows of the spanning Gram)
        offset = 0
        for i, up in ups.items():
            d = module.dim_at(up)
            rhs = [[rows[a][offset + b] for b in range(d)] for a in chosen]
            assert _frac_product(g, [list(r) for r in module.lowering[(i, up)].data]) == rhs
            offset += d


# -- weight spaces built on demand ---------------------------------------------

def _fresh(rs, lam):
    return build_theta_operators(rs, build_module(rs, lam))


def _cone(rs, weights, beta):
    """The weights gamma with gamma - beta in Q+."""
    return {g for g in weights if root_lattice_coords(rs, beta, g) is not None}


@pytest.mark.parametrize("name, k, lam, beta, sizes", [
    # every weight space of V^(6,0) is a line, so a live constraint has full rank: 0, V_lam built
    ("A2", 6, (6, 0), (1, 1), (1, 7, 28)), ("A2", 6, (6, 0), (0, 0), (1, 12, 28)),
    # two live constraints of rank < dim V_beta are ranked, on the whole upper cone
    ("G2", 4, (1, 2), (0, 1), (18, 18, 55)), ("G2", 4, (1, 2), (0, 0), (26, 26, 55)),
])
def test_a_query_builds_only_the_upper_cone_of_its_weight(monkeypatch, name, k, lam, beta, sizes):
    """The Walton space of V^lam at beta (mu = 0) reads V^lam at beta and above it, and nowhere
    else; (weights built, weights in that upper cone, weights of V^lam) are pinned."""
    from fusionkit import repspace, walton_dimension

    rs = build_root_system(name)
    monkeypatch.setattr(repspace, "_MODULE_MEMO", {})
    walton_dimension(rs, k, lam, beta, (0,) * rs.rank)
    module = repspace._MODULE_MEMO[(rs, lam)]
    weights = weight_diagram(rs, lam).table
    cone = _cone(rs, weights, beta)
    assert set(module._basis) <= cone
    assert (len(module._basis), len(cone), len(weights)) == sizes


@pytest.mark.parametrize("name, k", [("A2", 6), ("G2", 4), ("C3", 2), ("E6", 1)])
def test_cone_built_blocks_equal_those_of_the_complete_module(name, k):
    """Building only the cone above beta gives every block the complete module has there."""
    from fusionkit import level_alcove
    from fusionkit.repspace import _ensure

    rs = build_root_system(name)
    for lam in level_alcove(rs, k):
        full = _fresh(rs, lam)
        theta = full.theta_raising
        for beta in full.basis_index:
            part = _fresh(rs, lam)
            _ensure(part, beta)
            etheta = operator_power_block(part, "etheta", 1, beta)
            assert set(part._basis) == _cone(rs, full.basis_index, beta)
            for gamma, labels in part._basis.items():
                assert labels == full.basis_index[gamma]
            assert all(blk == full.lowering[key] for key, blk in part._lowering.items())
            assert all(blk == full.raising[key] for key, blk in part._raising.items())
            assert etheta == theta.get(beta, RationalMatrix.zeros(0, part.dim_at(beta)))


def test_threads_querying_one_module_at_different_weights_match_serial_answers(monkeypatch):
    import sys
    import threading

    from fusionkit import level_alcove, repspace, walton_dimension

    g2 = build_root_system("G2")
    k, lam = 4, (1, 2)
    alcove = level_alcove(g2, k)
    weights = weight_diagram(g2, lam).table
    by_beta = {}
    for mu in alcove:
        for nu in alcove:
            if wsub(nu, mu) in weights:
                by_beta.setdefault(wsub(nu, mu), []).append((mu, nu))
    monkeypatch.setattr(repspace, "_MODULE_MEMO", {})
    serial = {(mu, nu): walton_dimension(g2, k, lam, wsub(nu, mu), mu)
              for cells in by_beta.values() for mu, nu in cells}
    monkeypatch.setattr(repspace, "_MODULE_MEMO", {})
    shares = [[], [], [], [], [], []]
    for n, cells in enumerate(by_beta.values()):  # each thread owns its own betas
        shares[n % 6].extend(cells)
    answers, errors = {}, []

    def worker(cells):
        try:
            for mu, nu in cells:
                answers[mu, nu] = walton_dimension(g2, k, lam, wsub(nu, mu), mu)
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(share,)) for share in shares]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and answers == serial


def test_alcove_modules_dump_to_the_recorded_digest():
    """Every block of the 151 alcove modules below is that of the modules built
    before weight spaces were built on demand: the digest was taken then."""
    import hashlib

    from fusionkit import level_alcove

    def blocks(maps):
        return sorted((key, m.rows, m.cols, m.den, m.num) for key, m in maps.items())

    digest = hashlib.sha256()
    count = 0
    for name, k in (("A1", 12), ("A2", 9), ("A3", 3), ("B2", 5), ("B3", 2), ("C3", 2),
                    ("D5", 1), ("E6", 1), ("F4", 1), ("G2", 6)):
        rs = build_root_system(name)
        for lam in level_alcove(rs, k):
            m = _fresh(rs, lam)
            dump = (m.highest, sorted(m.basis_index.items()), blocks(m.gram), blocks(m.lowering),
                    blocks(m.raising), blocks(m.theta_raising), blocks(m.theta_lowering))
            digest.update(repr(dump).encode())
            count += 1
    assert count == 151
    assert digest.hexdigest() == "b5280c2b6751f2ac8b979e0d8ec9bd84e415b48e9b86ceb8534343ef671e59ec"
