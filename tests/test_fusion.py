import itertools
import json
import os
import re
import subprocess
import sys
from functools import cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import (
    CapExceededError,
    FusionkitError,
    PreconditionError,
    build_root_system,
    dual_weight,
    fusion_coefficient,
    fusion_coefficient_via_fz,
    fusion_table,
    fz_dimension,
    kac_walton_coefficient,
    level_alcove,
    prv_dimension,
    reflect,
    stability_threshold,
    tensor_multiplicity,
    walton_dimension,
    weight_diagram,
    weyl_dimension,
)
import fusionkit.fusion
import fusionkit.linalg
import fusionkit.multiplicity
from fusionkit.cli import main
from fusionkit.errors import InternalError
from fusionkit.fusion import (
    DEFAULT_FZ_CAP,
    FUSION_BACKENDS,
    _equivalent_triples,
    _slice_pairs,
    affine_fold,
    check_level,
    theta_pairing,
)
from fusionkit.linalg import RationalMatrix
from fusionkit.repspace import RepModule, cached_module, operator_power_block
from fusionkit.rootdata import current_orbit, wadd, wneg, wscale, weyl_orbit, wsub


def test_level_alcove(a1, a2):
    for k in range(1, 5):
        assert level_alcove(a1, k) == [(n,) for n in range(k + 1)]
    assert level_alcove(a2, 1) == [(0, 0), (0, 1), (1, 0)]
    assert (0, 0) in level_alcove(a2, 3)
    assert len(level_alcove(a2, 2)) == 6
    with pytest.raises(PreconditionError):
        level_alcove(a2, 0)
    with pytest.raises(PreconditionError):
        check_level("2")


# (0, -1) is the lowest weight of V^(1,0) on A2: beta = (0, -1) and mu = 0 put beta+mu
# off the chamber
_REFUSED_BY_NAME = {
    "fusion_coefficient": (lambda rs: fusion_coefficient(rs, 2, (1, 0), (1, -1), (1, 0)),
                           "mu = (1, -1) is not dominant"),
    "walton_dimension": (lambda rs: walton_dimension(rs, 2, (1, 0), (0, -1), (0, 0)),
                         "beta+mu = (0, -1) is not dominant"),
    "prv_dimension": (lambda rs: prv_dimension(rs, (1, 0), (0, -1), (0, 0)),
                      "beta+mu = (0, -1) is not dominant"),
    "prv_dimension-lam": (lambda rs: prv_dimension(rs, (1, -1), (0, 0), (0, 0)),
                          "lam = (1, -1) is not dominant"),
    "kac_walton_coefficient": (lambda rs: kac_walton_coefficient(rs, 2, (1, -1), (0, 0), (0, 0)),
                               "lam = (1, -1) is not dominant"),
    "fz_dimension": (lambda rs: fz_dimension(rs, 2, (0, 0), (0, 0), (1, -1)),
                     "nu = (1, -1) is not dominant"),
    "tensor_multiplicity": (lambda rs: tensor_multiplicity(rs, (1, 0), (0, 1), (1, -1)),
                            "(1, -1) is not dominant"),
    "weight_diagram": (lambda rs: weight_diagram(rs, (1, -1)), "(1, -1) is not dominant"),
    "weyl_dimension": (lambda rs: weyl_dimension(rs, [1, -1]), "(1, -1) is not dominant"),
    "weyl_orbit": (lambda rs: weyl_orbit(rs, (1, -1)), "(1, -1) is not dominant"),
    "reflect": (lambda rs: reflect(rs, 2, (1, 0)), "simple root index 2 out of range for A2"),
    "stability_threshold": (lambda rs: stability_threshold(weight_diagram(rs, (1, 0)), (1, 0), -1),
                            "simple root index -1 out of range for A2"),
}


@pytest.mark.parametrize("name", _REFUSED_BY_NAME)
def test_a_weight_off_the_chamber_or_a_bad_root_index_is_refused_by_name(a2, name):
    call, message = _REFUSED_BY_NAME[name]
    with pytest.raises(PreconditionError, match=re.escape(message)):
        call(a2)


# each public entry on A2 at level 2, with w in a slot that once took a weight of any length:
# short weights hung (the dominant-weight walk never ends) and long ones gave wrong answers
_WRONG_LENGTH_CALLS = {
    "fusion_coefficient": "fusion_coefficient(rs, 2, w, (0, 1), (1, 1))",
    "fusion_coefficient-nu": "fusion_coefficient(rs, 2, (1, 0), (0, 1), w)",
    "kac_walton_coefficient": "kac_walton_coefficient(rs, 2, w, (0, 1), (1, 1))",
    "fusion_coefficient_via_fz": "fusion_coefficient_via_fz(rs, 2, (1, 0), (0, 1), w)",
    "fz_dimension": "fz_dimension(rs, 2, (1, 0), w, (0, 0))",
    "walton_dimension": "walton_dimension(rs, 2, (1, 0), (1, 0), w)",
    "prv_dimension": "prv_dimension(rs, (1, 0), (1, 0), w)",
    "weyl_dimension": "weyl_dimension(rs, w)",
    "weight_diagram": "weight_diagram(rs, w)",
    "freudenthal_diagram": "freudenthal_diagram(rs, w)",
    "recursion_diagram": "recursion_diagram(rs, w)",
    "cached_module": "cached_module(rs, w)",
    "build_module": "build_module(rs, w)",
    "tensor_decompose": "tensor_decompose(rs, (1, 0), w)",
    "tensor_multiplicity": "tensor_multiplicity(rs, (1, 0), (1, 0), w)",
    "greedy_decompose": "greedy_decompose(rs, w, (1, 0))",
    "dual_weight": "dual_weight(rs, w)",
    "reflect": "reflect(rs, 0, w)",
    "is_weight_of": "is_weight_of(rs, (1, 0), w)",
    "is_weight_of-lam": "is_weight_of(rs, w, (1, 0))",
    "pairing": "pairing(rs, w, 1)",
    "form": "form(rs, w, (1, 1))",
    "form-mu": "form(rs, (1, 1), w)",
    "root_pairing": "root_pairing(rs, w, rs.theta)",
    "root_pairing-root": "root_pairing(rs, (1, 1), w)",
    "weight_string": "weight_string(weight_diagram(rs, (1, 1)), w, rs.theta)",
    "weight_string-direction": "weight_string(weight_diagram(rs, (1, 1)), (1, 1), w)",
}

# runs every call with a short and a long w, each under a 10 s alarm, and prints the outcomes
_WRONG_LENGTH_CHILD = """
import json, signal, sys
from fusionkit import *
from fusionkit.rootdata import is_weight_of

def hung(*_):
    raise TimeoutError("no answer in 10 s")

signal.signal(signal.SIGALRM, hung)
rs, out = build_root_system("A2"), {}
for name, call in json.loads(sys.argv[1]).items():
    for w in ((1,), (0, 0, 5)):
        signal.alarm(10)
        try:
            out[f"{name} {w}"] = f"returned {eval(call)!r}"
        except Exception as exc:
            out[f"{name} {w}"] = f"{type(exc).__name__}: {exc}"
        finally:
            signal.alarm(0)
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def wrong_length_outcomes():
    """Outcome per call and weight, from one fresh process, so a call that hangs fails the
    tests below instead of hanging the suite."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", _WRONG_LENGTH_CHILD, json.dumps(_WRONG_LENGTH_CALLS)]
    proc = subprocess.run(argv, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", _WRONG_LENGTH_CALLS)
def test_a_weight_of_the_wrong_length_is_refused_by_every_public_entry(wrong_length_outcomes, name):
    for w in ((1,), (0, 0, 5)):
        outcome = wrong_length_outcomes[f"{name} {w}"]
        assert outcome.startswith("PreconditionError: ") and "needs 2 coordinates for A2" in outcome


def test_theta_pairing_is_comark_sum(a2, g2):
    assert theta_pairing(a2, (1, 1)) == 2
    assert theta_pairing(g2, (1, 1)) == 3  # comarks (2, 1)


def test_prv_examples(a1, a2):
    assert prv_dimension(a1, (2,), (2,), (1,)) == 1  # beta = lam
    assert prv_dimension(a1, (2,), (0,), (1,)) == 1
    assert prv_dimension(a2, a2.theta, (0, 0), a2.theta) == 2
    with pytest.raises(PreconditionError):
        prv_dimension(a2, a2.theta, (5, 5), a2.theta)


def test_prv_matches_racah_speiser_mini(a2):
    from fusionkit import weight_diagram
    from fusionkit.rootdata import is_dominant

    for lam in ((1, 0), (1, 1), (2, 1)):
        d = weight_diagram(a2, lam)
        for mu in ((1, 0), (1, 1)):
            for beta in d.table:
                if not is_dominant(wadd(beta, mu)):
                    continue
                assert prv_dimension(a2, lam, beta, mu) == tensor_multiplicity(
                    a2, lam, mu, wadd(beta, mu)
                )


def test_walton_sl2_closed_form(a1):
    for k in range(1, 5):
        for n1 in range(k + 1):
            for n2 in range(k + 1):
                for i in range(n1 + 1):
                    out = n1 + n2 - 2 * i
                    if not 0 <= out <= k:
                        continue
                    expect = 1 if (i <= n2 and n1 + n2 - 2 * i <= k - i) else 0
                    assert walton_dimension(a1, k, (n1,), (n1 - 2 * i,), (n2,)) == expect


def test_walton_examples_and_bounds(a2):
    assert walton_dimension(a2, 2, a2.theta, (0, 0), a2.theta) == 1
    for k, beta in ((2, (0, 0)), (3, (0, 0)), (4, (1, 1)), (5, (1, 1))):
        w = walton_dimension(a2, k, a2.theta, beta, a2.theta)
        assert w <= prv_dimension(a2, a2.theta, beta, a2.theta)


def test_walton_error_classification(a1, a2):
    with pytest.raises(PreconditionError, match="level violation"):
        walton_dimension(a1, 1, (2,), (0,), (1,))
    with pytest.raises(PreconditionError, match="not a weight"):
        walton_dimension(a2, 3, (1, 0), (2, 2), (1, 0))
    with pytest.raises(PreconditionError, match="level violation"):
        walton_dimension(a1, 2, (2,), (2,), (2,))  # beta + mu leaves the alcove


def test_fusion_identity_row(a2):
    for k in (1, 2):
        for mu in level_alcove(a2, k):
            for nu in level_alcove(a2, k):
                expect = 1 if mu == nu else 0
                assert fusion_coefficient(a2, k, (0, 0), mu, nu) == expect


def test_fusion_sl2_level_one(a1):
    assert fusion_coefficient(a1, 1, (1,), (1,), (0,)) == 1
    assert fusion_coefficient(a1, 1, (1,), (1,), (1,)) == 0
    with pytest.raises(PreconditionError):
        fusion_coefficient(a1, 1, (1,), (1,), (2,))


def test_fusion_a2_level_one(a2):
    got = {
        nu: fusion_coefficient(a2, 1, (1, 0), (1, 0), nu) for nu in level_alcove(a2, 1)
    }
    assert got == {(0, 0): 0, (0, 1): 1, (1, 0): 0}


def test_fusion_table_sl2_level_one(a1):
    table = fusion_table(a1, 1)
    assert table.alcove == ((0,), (1,))
    assert table.coeffs == {
        ((0,), (0,), (0,)): 1,
        ((0,), (1,), (1,)): 1,
        ((1,), (0,), (1,)): 1,
        ((1,), (1,), (0,)): 1,
    }


def test_fusion_table_a2_level_one(a2):
    table = fusion_table(a2, 1)
    z, one, two = (0, 0), (1, 0), (0, 1)
    assert table.coefficient(one, one, two) == 1
    assert table.coefficient(one, two, z) == 1
    assert table.coefficient(two, two, one) == 1
    assert sum(table.coeffs.values()) == 9  # the Z3 group algebra
    assert table.coefficient(one, one, one) == 0


def test_fusion_table_a2_level_two_adjoint_square(a2):
    table = fusion_table(a2, 2)
    row = {
        nu: c for (lam, mu, nu), c in table.coeffs.items() if lam == (1, 1) and mu == (1, 1)
    }
    # tensor square 1+8+8+10+10bar+27 truncates to 1+8 at level 2
    assert row == {(0, 0): 1, (1, 1): 1}


def test_affine_fold_walls_and_interior(a1):
    # shifted level k + h_vee = 4 at k = 2
    assert affine_fold(a1, (3,), 4) == ((3,), 1)
    assert affine_fold(a1, (4,), 4) == (None, 0)
    assert affine_fold(a1, (0,), 4) == (None, 0)
    folded, sign = affine_fold(a1, (5,), 4)
    assert (folded, sign) == ((3,), -1)


def _fold_by_search(rs, x, shifted_level):
    """The closed-alcove point of the affine Weyl orbit of x, found breadth-first over words
    in the simple reflections and the affine one, with (-1)^depth; (None, 0) on a wall."""
    def theta_of(y):
        return sum(c * a for c, a in zip(rs.comarks, y))

    level, seen = [x], {x}
    for depth in range(100):
        for y in level:
            t = theta_of(y)
            if min(y) >= 0 and t <= shifted_level:
                return (None, 0) if 0 in y or t == shifted_level else (y, (-1) ** depth)
        nxt = []
        for y in level:
            images = [tuple(c - y[i] * a for c, a in zip(y, root))
                      for i, root in enumerate(rs.simple_roots)]
            images.append(tuple(c - (theta_of(y) - shifted_level) * a
                                for c, a in zip(y, rs.theta)))
            for z in images:
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        level = nxt
    raise AssertionError(f"no alcove point within 100 reflections of {x}")


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_affine_fold_matches_a_breadth_first_search(name):
    rs = build_root_system(name)
    shifted = 2 + rs.dual_coxeter
    box = range(-shifted, 2 * shifted + 1)
    got = {x: affine_fold(rs, x, shifted) for x in itertools.product(box, repeat=2)}
    assert got == {x: _fold_by_search(rs, x, shifted) for x in got}
    assert {sign for _, sign in got.values()} == {-1, 0, 1}


def test_affine_fold_that_does_not_terminate_is_an_internal_error(a1, monkeypatch, capsys):
    monkeypatch.setattr(fusionkit.fusion, "_FOLD_LIMIT", 1)
    with pytest.raises(InternalError, match=r"\(-5,\) at shifted level 4"):
        affine_fold(a1, (-5,), 4)  # (-5,) -> (5,) -> (3,): two passes
    monkeypatch.setattr(fusionkit.fusion, "_FOLD_LIMIT", 0)
    assert main(["fusion", "A1", "--level", "1", "--backend", "kacwalton"]) == 1
    assert re.fullmatch(r"error: affine folding of .* did not end\n", capsys.readouterr().err)


def test_a_current_that_does_not_permute_the_alcove_is_an_internal_error(monkeypatch, capsys,
                                                                          tmp_path):
    a2 = build_root_system("A2")
    monkeypatch.setattr(fusionkit.fusion, "current_orbit", lambda rs, k, w: (w, (0,) * rs.rank))
    with pytest.raises(InternalError, match="level 2 does not permute the alcove"):
        fusion_table(a2, 2)
    assert main(["fusion", "A2", "--level", "2", "--cache-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: a simple current of {a2} at level 2 does not permute the alcove\n")


def test_kac_walton_examples(a1, a2):
    assert {
        nu: kac_walton_coefficient(a1, 2, (1,), (1,), nu) for nu in level_alcove(a1, 2)
    } == {(0,): 1, (1,): 0, (2,): 1}
    assert kac_walton_coefficient(a2, 2, a2.theta, a2.theta, a2.theta) == 1
    # nu untouched by any folded orbit
    assert kac_walton_coefficient(a1, 3, (1,), (1,), (3,)) == 0


def test_fz_examples(a1, a2):
    assert fz_dimension(a1, 1, (0,), (0,), (0,)) == 1
    assert fz_dimension(a1, 1, (1,), (1,), (0,)) == 1
    assert fz_dimension(a2, 1, (1, 0), (1, 0), (1, 0)) == 1
    assert fz_dimension(a2, 1, (1, 0), (1, 0), (0, 1)) == 0


def _slice_map(src, tgt, shift, left, right=None):
    """X (x) 1 + 1 (x) Y from the slice listed in src into the slice src + shift, listed in tgt,
    as one dense block matrix of Kronecker products, independent of the integer rows
    ``fz_dimension`` writes.

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


def _fz_by_invariant_forms(rs, k, lam, mu, nu):
    """N^(k)_{lam,mu,nu} as invariant forms: the lowest weight vectors u of weight -nu in
    V^lam (x) V^mu (a kernel basis K), less the rank of the pairing <u, (e_theta^p (x) 1) w>
    under the product of the two contravariant forms, K^T G (e_theta^p (x) 1)."""
    mod_l, mod_r = cached_module(rs, lam), cached_module(rs, mu)
    target = wneg(nu)
    pairs = _slice_pairs(mod_l, mod_r, target)
    if not pairs:
        return 0
    lwv = RationalMatrix.vstack([
        _slice_map(pairs, _slice_pairs(mod_l, mod_r, wsub(target, alpha)), wneg(alpha),
                   partial(operator_power_block, mod_l, f"f{j}", 1),
                   partial(operator_power_block, mod_r, f"f{j}", 1))
        for j, alpha in enumerate(rs.simple_roots)]).kernel()
    if not lwv.cols:
        return 0
    p = k - theta_pairing(rs, nu) + 1
    shift = wscale(p, rs.theta)
    power = _slice_map(_slice_pairs(mod_l, mod_r, wsub(target, shift)), pairs, shift,
                       partial(operator_power_block, mod_l, "etheta", p))
    sizes = [d1 * d2 for *_, d1, d2 in pairs]
    gram = RationalMatrix.block(sizes, sizes, {
        (t, t): mod_l.gram[b1].kron(mod_r.gram[b2]) for t, (b1, b2, _, _) in enumerate(pairs)})
    return lwv.cols - (lwv.transpose() @ gram @ power).rank()


@pytest.mark.parametrize("name, k", [("A1", 1), ("A1", 2), ("A1", 3), ("A1", 4), ("A2", 1),
                                     ("A2", 2), ("A2", 3), ("B2", 2), ("G2", 2), ("A3", 2)])
def test_fz_dimension_equals_the_invariant_forms_that_kill_the_theta_power(name, k):
    """f_theta is the form-adjoint of e_theta and the form is positive definite on every
    weight space, so (f_theta^p (x) 1) u = 0 says <u, (e_theta^p (x) 1) w> = 0 for every w."""
    rs = build_root_system(name)
    alcove = level_alcove(rs, k)
    checked = 0
    for lam, mu, nu in itertools.product(alcove, repeat=3):
        if weyl_dimension(rs, lam) * weyl_dimension(rs, mu) <= DEFAULT_FZ_CAP:
            assert fz_dimension(rs, k, lam, mu, nu) == _fz_by_invariant_forms(rs, k, lam, mu, nu)
            checked += 1
    assert checked


def test_fz_dimension_takes_no_kernel_and_reads_no_gram(monkeypatch, a2):
    def refuse(*_):
        raise AssertionError("a kernel basis or a Gram matrix was read")

    monkeypatch.setattr(RationalMatrix, "kernel", refuse)
    monkeypatch.setattr(RepModule, "gram", property(refuse))
    monkeypatch.setattr(fusionkit.repspace, "_MODULE_MEMO", {})
    alcove = level_alcove(a2, 2)
    for lam, mu, nu in itertools.product(alcove, repeat=3):
        assert fz_dimension(a2, 2, lam, mu, nu) == fusion_coefficient(a2, 2, lam, mu,
                                                                       dual_weight(a2, nu))


def test_walton_tables_and_point_queries_read_no_contravariant_form(monkeypatch, g2):
    """Modules are built from the raising map alone: a table and point queries that build
    weight spaces on fresh modules run no Sylvester test and read no Gram matrix."""
    expect = fusion_table(g2, 4, backend="kacwalton")

    def refuse(*_):
        raise AssertionError("a Gram matrix was read or tested")

    monkeypatch.setattr(RationalMatrix, "is_positive_definite", refuse)
    monkeypatch.setattr(RepModule, "gram", property(refuse))
    table_memo, query_memo = {}, {}
    monkeypatch.setattr(fusionkit.repspace, "_MODULE_MEMO", table_memo)
    assert fusion_table(g2, 4) == expect
    monkeypatch.setattr(fusionkit.repspace, "_MODULE_MEMO", query_memo)
    # each query ranks a Walton space that the weight diagram alone does not decide
    for name, k, lam, mu, nu in (("B2", 5, (2, 0), (0, 5), (0, 5)),
                                 ("G2", 4, (1, 2), (0, 3), (1, 2)),
                                 ("C3", 2, (1, 1, 0), (2, 0, 0), (1, 1, 0)),
                                 ("G2", 6, (1, 4), (1, 3), (1, 2))):
        rs = build_root_system(name)
        assert fusion_coefficient(rs, k, lam, mu, nu) == kac_walton_coefficient(rs, k, lam, mu, nu)
    for memo in (table_memo, query_memo):  # weight spaces below lam were built
        assert any(len(module._basis) > 1 for module in memo.values())


@pytest.mark.parametrize("name, lam, mu", [("A2", (1, 0), (0, 1)), ("A3", (1, 0, 0), (0, 0, 1))])
def test_fz_dimension_lists_each_slice_once(monkeypatch, name, lam, mu):
    """The target slice, each target - alpha_j and target - p theta: rank + 2 listings."""
    rs = build_root_system(name)
    listed = []
    original = fusionkit.fusion._slice_pairs
    monkeypatch.setattr(fusionkit.fusion, "_slice_pairs",
                        lambda ml, mr, gamma: listed.append(gamma) or original(ml, mr, gamma))
    assert fz_dimension(rs, 1, lam, mu, (0,) * rs.rank) == 1  # reaches the f_theta^p map
    assert len(listed) == len(set(listed)) == rs.rank + 2


def test_fz_dimension_on_an_empty_target_slice_lists_it_and_ranks_nothing(monkeypatch, a2):
    """-nu = (-1, 0) is not a weight of V^(1,0) (x) V^0: one listing, no rank, value 0."""
    listed, ranked = [], []
    original, rank = fusionkit.fusion._slice_pairs, fusionkit.fusion.sparse_rank
    monkeypatch.setattr(fusionkit.fusion, "_slice_pairs",
                        lambda ml, mr, gamma: listed.append(gamma) or original(ml, mr, gamma))
    monkeypatch.setattr(fusionkit.fusion, "sparse_rank",
                        lambda rows: ranked.append(rows) or rank(rows))
    assert fz_dimension(a2, 1, (1, 0), (0, 0), (1, 0)) == 0
    assert (listed, ranked) == ([(-1, 0)], [])
    assert fz_dimension(a2, 1, (1, 0), (0, 1), (0, 0)) == 1  # the patched rank is the one FZ calls
    assert len(ranked) == 1


def test_fz_dimension_never_enters_the_dense_gauss_jordan(monkeypatch):
    """FZ ranks its stack by ``sparse_rank`` alone. The modules are built first, since a
    build runs ``rref``; the second sweep then reads only memoised blocks."""
    cells = {}
    for name, k in (("A2", 2), ("B2", 1), ("G2", 1)):
        rs = build_root_system(name)
        for lam, mu, nu in itertools.product(level_alcove(rs, k), repeat=3):
            cells[rs, k, lam, mu, nu] = fz_dimension(rs, k, lam, mu, nu)

    def refuse(*_):
        raise AssertionError("the dense Gauss-Jordan was entered")

    monkeypatch.setattr(fusionkit.linalg, "_gauss_jordan", refuse)
    for (rs, k, lam, mu, nu), value in cells.items():
        assert fz_dimension(rs, k, lam, mu, nu) == value
    assert any(cells.values())


def test_fz_cap_and_level_errors(a2):
    with pytest.raises(CapExceededError):
        fz_dimension(a2, 4, (1, 1), (1, 1), (1, 1), max_fz_dim=10)
    with pytest.raises(PreconditionError):
        fz_dimension(a2, 1, (1, 1), (1, 0), (1, 0))


def test_three_way_agreement_mini(a1, a2):
    for k in (1, 2):
        for rs in (a1, a2):
            alcove = level_alcove(rs, k)
            for lam, mu, nu in itertools.product(alcove, repeat=3):
                w = fusion_coefficient(rs, k, lam, mu, nu)
                assert w == kac_walton_coefficient(rs, k, lam, mu, nu)
                if weyl_dimension(rs, lam) * weyl_dimension(rs, mu) <= 400:
                    assert w == fusion_coefficient_via_fz(rs, k, lam, mu, nu)


def test_alcove_truncation_bound(a2):
    for k in (1, 2):
        table = fusion_table(a2, k)
        for (lam, mu, nu), c in table.coeffs.items():
            assert c <= tensor_multiplicity(a2, lam, mu, nu)


def test_high_level_limit_matches_tensor(a2):
    # far above the threshold the truncation is invisible
    lam = mu = a2.theta
    for nu in ((1, 1), (2, 2), (3, 0)):
        expect = tensor_multiplicity(a2, lam, mu, nu)
        assert fusion_coefficient(a2, 12, lam, mu, nu) == expect


def test_symmetry_of_triple_coefficient(a2):
    for k in (1, 2):
        alcove = level_alcove(a2, k)
        for lam, mu, nu in itertools.combinations_with_replacement(alcove, 3):
            reference = fusion_coefficient(a2, k, lam, mu, dual_weight(a2, nu))
            for x, y, z in itertools.permutations((lam, mu, nu)):
                assert fusion_coefficient(a2, k, x, y, dual_weight(a2, z)) == reference


def test_backends_agree_beyond_rank_two():
    for name, k in (("B2", 1), ("B2", 2), ("G2", 1), ("C3", 1), ("A3", 1)):
        rs = build_root_system(name)
        alcove = level_alcove(rs, k)
        for lam, mu, nu in itertools.product(alcove, repeat=3):
            w = fusion_coefficient(rs, k, lam, mu, nu)
            assert w == kac_walton_coefficient(rs, k, lam, mu, nu)
            if weyl_dimension(rs, lam) * weyl_dimension(rs, mu) <= 400:
                assert w == fusion_coefficient_via_fz(rs, k, lam, mu, nu)


def test_so5_level_one_is_the_ising_ring(b2):
    table = fusion_table(b2, 1)
    one, spinor, vector = (0, 0), (0, 1), (1, 0)
    assert table.alcove == (one, spinor, vector)
    assert table.coefficient(spinor, spinor, one) == 1
    assert table.coefficient(spinor, spinor, vector) == 1
    assert table.coefficient(spinor, spinor, spinor) == 0
    assert table.coefficient(vector, vector, one) == 1
    assert table.coefficient(vector, vector, vector) == 0
    assert table.coefficient(vector, spinor, spinor) == 1


def test_g2_level_one_is_the_fibonacci_ring(g2):
    table = fusion_table(g2, 1)
    one, tau = (0, 0), (0, 1)
    assert table.alcove == (one, tau)
    assert table.coefficient(tau, tau, one) == 1
    assert table.coefficient(tau, tau, tau) == 1


@pytest.mark.parametrize("name, k", [("A2", 2), ("B2", 1), ("G2", 1)])
def test_fusion_table_is_the_same_for_every_backend(name, k):
    rs = build_root_system(name)
    walton, kacwalton, fz = (fusion_table(rs, k, backend=b) for b in FUSION_BACKENDS)
    assert walton.coeffs and walton == kacwalton == fz
    assert not walton.skipped and not fz.skipped


def test_fusion_table_fz_rows_over_the_cap_are_skipped(a2):
    walton = fusion_table(a2, 2)
    fz = fusion_table(a2, 2, backend="fz", max_fz_dim=30)
    big = {w for w in walton.alcove if weyl_dimension(a2, w) > 3}  # dimensions 6, 8 and 6
    assert fz.skipped == {(lam, mu) for lam in big for mu in big}
    assert fz.coeffs == {t: c for t, c in walton.coeffs.items() if t[:2] not in fz.skipped}


@pytest.mark.parametrize("backend", FUSION_BACKENDS)
def test_fusion_table_refuses_an_alcove_weight_over_max_dim_on_every_backend(a2, backend):
    # the orbit representatives of A2 k=3 have dimension <= 8; (0,3) has 10 and (2,1) 15
    with pytest.raises(CapExceededError, match="> cap 8"):
        fusion_table(a2, 3, backend=backend, max_dim=8)


@pytest.mark.parametrize("backend", FUSION_BACKENDS)
def test_fusion_table_at_a_huge_level_is_refused_before_its_alcove_is_listed(
        a1, monkeypatch, backend):
    monkeypatch.setattr(fusionkit.fusion, "level_alcove", None)  # listing would be a TypeError
    # the vertex k omega_1 has dimension k + 1
    with pytest.raises(CapExceededError, match=r"dim V\^\(1000000000,\) = 1000000001 > cap 3000"):
        fusion_table(a1, 10**9, backend=backend)


def test_verify_axioms_reads_the_walton_table_cell_by_cell(monkeypatch):
    """The axioms run on the Kac-Walton table, so a Walton class value that is off fails its
    cells even though the Walton table still has every symmetry it writes by construction."""
    from fusionkit.verify import verify_axioms

    value = fusionkit.fusion._class_value
    monkeypatch.setattr(fusionkit.fusion, "_class_value",
                        lambda *args: value(*args) + (value(*args) == 2))
    report = verify_axioms(restrict_type="A2", restrict_level=3)
    assert report.failures
    assert all("walton=3 kacwalton=2" in f for f in report.failures)


def test_a_prv_failure_names_its_triple_and_both_values(monkeypatch):
    from fusionkit import verify

    value = verify.tensor_multiplicity

    def one_triple_off(rs, lam, mu, nu):
        return value(rs, lam, mu, nu) + ((lam, mu, nu) == ((1, 0), (0, 1), (0, 0)))

    monkeypatch.setattr(verify, "tensor_multiplicity", one_triple_off)
    report = verify.verify_prv(restrict_type="A2")
    assert report.failures == ["A2 lam=(1, 0) beta=(0, -1) mu=(0, 1): prv=1 racah-speiser=2"]


def test_a_three_way_failure_names_its_triple_and_both_values(monkeypatch):
    from fusionkit import verify

    table = verify.fusion_table

    def one_cell_off(rs, k, backend="walton"):
        got = table(rs, k, backend)
        if backend != "kacwalton":
            return got
        cell = ((1, 0), (1, 0), (0, 1))
        return got._replace(coeffs={**got.coeffs, cell: got.coeffs.get(cell, 0) + 1})

    monkeypatch.setattr(verify, "fusion_table", one_cell_off)
    report = verify.verify_three_way(restrict_type="A2", restrict_level=1)
    assert report.checks == 54
    assert report.failures == ["A2 k=1 (1, 0)x(1, 0)->(0, 1): walton=1 kacwalton=2"]

def test_fusion_table_unknown_backend_is_classified(a2):
    with pytest.raises(FusionkitError, match="unknown backend"):
        fusion_table(a2, 1, backend="nope")


_MAX_PROPERTY_LEVEL = {
    "A1": 4, "A2": 3, "A3": 2, "A4": 2, "B2": 2, "B3": 2, "C3": 2, "D4": 2, "D5": 1, "G2": 2,
}


@cache
def _walton_table(name, k):
    return fusion_table(build_root_system(name), k)


@st.composite
def _alcove_triples(draw, levels=_MAX_PROPERTY_LEVEL):
    """(type, k, lam, mu, nu); half the time nu - mu is a weight of V^lam (a computed cell)."""
    name = draw(st.sampled_from(sorted(levels)))
    k = draw(st.integers(1, levels[name]))
    rs = build_root_system(name)
    alcove = level_alcove(rs, k)
    lam, mu = draw(st.sampled_from(alcove)), draw(st.sampled_from(alcove))
    weights = weight_diagram(rs, lam).table
    reached = [nu for nu in alcove if wsub(nu, mu) in weights]
    nu = draw(st.sampled_from(reached if draw(st.booleans()) else alcove))
    return name, k, lam, mu, nu


def _unrouted(rs, k, lam, mu, nu):
    """N^nu_{lam,mu} on the Walton space of V^lam itself, with no symmetry: 0 off its weights."""
    beta = wsub(nu, mu)
    return walton_dimension(rs, k, lam, beta, mu) if beta in weight_diagram(rs, lam).table else 0


@settings(max_examples=300, deadline=None)
@given(_alcove_triples())
def test_walton_rows_equal_single_cell_queries_and_kac_walton(triple):
    name, k, lam, mu, nu = triple
    rs = build_root_system(name)
    cell = _walton_table(name, k).coefficient(lam, mu, nu)
    assert cell == fusion_coefficient(rs, k, lam, mu, nu)
    assert cell == _unrouted(rs, k, lam, mu, nu)
    assert cell == kac_walton_coefficient(rs, k, lam, mu, nu)


# -- point queries routed to the cheapest equivalent Walton space ------------------

@settings(max_examples=200, deadline=None)
@given(_alcove_triples({
    "A2": 3, "A3": 2, "A4": 2, "B2": 3, "B3": 2, "C3": 2, "D4": 2, "D5": 1, "G2": 3,
}))
def test_routed_queries_equal_the_unrouted_walton_space_and_kac_walton(triple):
    name, k, lam, mu, nu = triple
    rs = build_root_system(name)
    got = fusion_coefficient(rs, k, lam, mu, nu)
    assert got == _unrouted(rs, k, lam, mu, nu)
    assert got == kac_walton_coefficient(rs, k, lam, mu, nu)


@pytest.mark.parametrize("name, k", [("A2", 3), ("A3", 2), ("B2", 3), ("G2", 3), ("E6", 1)])
def test_every_routed_cell_equals_the_unrouted_walton_space(name, k):
    """Exhaustive; without the duals in the S3 forms, 152 cells of A2 k=3 and 108 of A3 k=2 differ."""
    rs = build_root_system(name)
    for triple in itertools.product(level_alcove(rs, k), repeat=3):
        assert fusion_coefficient(rs, k, *triple) == _unrouted(rs, k, *triple), triple


@pytest.mark.parametrize("name, k, triple, value, built", [
    # N^{(0,1,1)}_{(1,1,1),(1,1,0)} is read on V^(1,0,1), where V^(1,1,1) would build 15; its
    # one live constraint has maximal rank, read off the diagram, so only V_(1,0,1) is built
    ("A3", 3, ((1, 1, 1), (1, 1, 0), (0, 1, 1)), 2, {(1, 0, 1): 1}),
    # G2 has no currents; commutativity and the duals pick V^(1,2) over V^(1,4) (68 built)
    ("G2", 6, ((1, 4), (1, 3), (1, 2)), 4, {(1, 2): 18}),
])
def test_a_point_query_builds_only_the_chosen_module(monkeypatch, name, k, triple, value, built):
    from fusionkit import repspace

    rs = build_root_system(name)
    monkeypatch.setattr(repspace, "_MODULE_MEMO", {})
    monkeypatch.setattr(fusionkit.multiplicity, "_DIAGRAM_MEMO", {})
    assert fusion_coefficient(rs, k, *triple) == value
    assert {lam: len(m._basis) for (_, lam), m in repspace._MODULE_MEMO.items()} == built
    # the membership tests fold weights instead of reading diagrams: only built modules have one
    assert fusionkit.multiplicity._DIAGRAM_MEMO.keys() == repspace._MODULE_MEMO.keys()


@pytest.mark.parametrize("name, k, triple", [
    ("A2", 9, ((4, 5), (0, 0), (0, 0))),  # nu - mu = 0 is not a weight of V^(4,5)
    ("A2", 9, ((4, 5), (0, 0), (0, 1))),  # (0,1) is, but a member on V^0 has t - b not below 0
    ("G2", 4, ((0, 4), (1, 0), (2, 0))),  # the chosen beta is below a, but not a weight of V^a
])
def test_a_zero_query_builds_neither_a_diagram_nor_a_module(monkeypatch, name, k, triple):
    from fusionkit import repspace

    rs = build_root_system(name)
    monkeypatch.setattr(repspace, "_MODULE_MEMO", {})
    monkeypatch.setattr(fusionkit.multiplicity, "_DIAGRAM_MEMO", {})
    assert fusion_coefficient(rs, k, *triple) == 0
    assert repspace._MODULE_MEMO == {} and fusionkit.multiplicity._DIAGRAM_MEMO == {}


@pytest.mark.parametrize("name, k", [("G2", 4), ("A3", 3)])
def test_a_table_ranks_each_class_once_on_the_member_a_point_query_ranks(monkeypatch, name, k):
    rs = build_root_system(name)
    ranked = []  # (a, b, t) of every Walton-space rank, at beta = t - b
    original = fusionkit.fusion._walton_space

    def record(module, beta, mu, *rest):
        ranked.append((module.highest, mu, wadd(beta, mu)))
        return original(module, beta, mu, *rest)

    monkeypatch.setattr(fusionkit.fusion, "_walton_space", record)
    table = fusion_table(rs, k)
    from_table = list(ranked)
    classes = [_equivalent_triples(rs, k, *triple) for triple in from_table]
    covered = set().union(*classes)
    assert sum(map(len, classes)) == len(covered)  # no two calls in one class
    assert set(table.coeffs) <= covered
    for triple in from_table:
        ranked.clear()
        assert fusion_coefficient(rs, k, *triple) == table.coefficient(*triple)
        assert ranked == [triple]


@pytest.mark.parametrize("name, k", [("A2", 6), ("B2", 4), ("G2", 4), ("C3", 3)])
def test_every_ranked_class_equals_the_full_stacked_rank(monkeypatch, name, k):
    """The ranks ``_walton_space`` reads off the diagram, and the stacks of only its live blocks,
    give dim V_beta less the rank of every constraint block stacked, on each class a table ranks."""
    rs = build_root_system(name)
    calls = []
    original = fusionkit.fusion._walton_space
    monkeypatch.setattr(fusionkit.fusion, "_walton_space",
                        lambda *args: calls.append(args) or original(*args))
    fusion_table(rs, k)
    assert calls
    for module, beta, mu, level in calls:
        blocks = [operator_power_block(module, f"e{j}", m + 1, beta) for j, m in enumerate(mu)]
        p = level - theta_pairing(rs, wadd(beta, mu)) + 1
        blocks.append(operator_power_block(module, "etheta", p, beta))
        full = module.dim_at(beta) - RationalMatrix.vstack(blocks, module.dim_at(beta)).rank()
        assert original(module, beta, mu, level) == full, (module.highest, beta, mu)


def test_tables_and_point_queries_never_go_through_walton_dimension(monkeypatch):
    """The chooser ranks its member directly; the public checks of ``walton_dimension``
    (level, alcove, cap, weight) are already settled for every class it ranks."""
    calls = []
    original = fusionkit.fusion.walton_dimension
    monkeypatch.setattr(fusionkit.fusion, "walton_dimension",
                        lambda *args: calls.append(args) or original(*args))
    a3 = build_root_system("A3")
    table = fusion_table(a3, 3)
    assert fusion_coefficient(a3, 3, (1, 1, 1), (1, 1, 0), (0, 1, 1)) == 2
    assert table.coefficient((1, 1, 1), (1, 1, 0), (0, 1, 1)) == 2
    assert calls == []


def test_every_memo_keys_on_the_shared_root_system(monkeypatch):
    """Diagrams, modules, orbits and Weyl groups are memoised on the record
    ``build_root_system`` hands out, not on a name formatted per lookup."""
    from fusionkit import repspace, rootdata, tensor, tensor_decompose

    for module, memo in ((tensor, "_ORBIT_MEMO"), (repspace, "_MODULE_MEMO"),
                         (rootdata, "_WEYL_MEMO"), (fusionkit.multiplicity, "_DIAGRAM_MEMO"),
                         (fusionkit.multiplicity, "_ORBIT_MEMO"), (rootdata, "_CURRENT_MEMO")):
        monkeypatch.setattr(module, memo, {})
    a2, b2 = build_root_system("A2"), build_root_system("B2")
    for backend in ("walton", "kacwalton"):
        fusion_table(a2, 3, backend)
    tensor_decompose(b2, (1, 0), (0, 1))
    assert rootdata._ROOT_SYSTEM_MEMO[rootdata.CartanType("A", 2)] is a2
    assert set(rootdata._WEYL_MEMO) == {a2, b2}  # a RootSystem compares by identity
    for memo in (tensor._ORBIT_MEMO, fusionkit.multiplicity._DIAGRAM_MEMO,
                 fusionkit.multiplicity._ORBIT_MEMO):
        assert {rs for rs, _ in memo} == {a2, b2}
    assert repspace._MODULE_MEMO and all(rs is a2 for rs, _ in repspace._MODULE_MEMO)
    assert rootdata._CURRENT_MEMO and all(rs is a2 for rs, _, _ in rootdata._CURRENT_MEMO)


def test_the_g2_level_six_table_builds_at_most_458_weight_spaces(monkeypatch):
    """One row per unordered pair of alcove weights built 964."""
    from fusionkit import repspace

    monkeypatch.setattr(repspace, "_MODULE_MEMO", {})
    fusion_table(build_root_system("G2"), 6)
    assert sum(len(m._basis) for m in repspace._MODULE_MEMO.values()) <= 458


def test_point_query_caps_apply_to_lam_as_before_routing(a2):
    """CapExceededError exactly when dim V^lam is over the cap, whether or not the cell is zero."""
    alcove, cap = level_alcove(a2, 3), 8
    for lam, mu, nu in itertools.product(alcove, repeat=3):
        if weyl_dimension(a2, lam) > cap:
            with pytest.raises(CapExceededError, match=f"> cap {cap}"):
                fusion_coefficient(a2, 3, lam, mu, nu, max_dim=cap)
        else:
            assert fusion_coefficient(a2, 3, lam, mu, nu, max_dim=cap) == \
                fusion_coefficient(a2, 3, lam, mu, nu)


_OVER_CAP_QUERIES = {  # lam has dimension 200001 or 45451; the A2 cell is zero
    "fusion_coefficient": lambda a1, a2: fusion_coefficient(a2, 300, (300, 0), (0, 0), (1, 0),
                                                            max_dim=10),
    "walton_dimension": lambda a1, a2: walton_dimension(a1, 200000, (200000,), (200000,), (0,),
                                                        max_dim=10),
    "prv_dimension": lambda a1, a2: prv_dimension(a1, (200000,), (200000,), (0,), max_dim=10),
}


@pytest.mark.parametrize("entry", _OVER_CAP_QUERIES)
def test_an_over_cap_lam_is_refused_before_its_diagram_is_read(a1, a2, monkeypatch, entry):
    def refuse(rs, lam):
        raise AssertionError(f"the weight diagram of V^{lam} was read")

    monkeypatch.setattr(fusionkit.multiplicity, "freudenthal_diagram", refuse)
    monkeypatch.setattr(fusionkit.multiplicity, "_DIAGRAM_MEMO", {})
    with pytest.raises(CapExceededError, match="> cap 10"):
        _OVER_CAP_QUERIES[entry](a1, a2)


@settings(max_examples=150, deadline=None)
@given(_alcove_triples({"E6": 2, "F4": 2, "E7": 1}))
def test_cells_on_fresh_modules_equal_table_cells_for_exceptional_types(triple):
    """A single query builds the module it reads only as far as it reads it; the table builds
    every module in full.
    The Kac-Walton oracle lists W, so it cannot check E7 in reasonable time; this can."""
    from unittest import mock

    from fusionkit import repspace

    name, k, lam, mu, nu = triple
    rs = build_root_system(name)
    cell = _walton_table(name, k).coefficient(lam, mu, nu)
    with mock.patch.object(repspace, "_MODULE_MEMO", {}):
        assert fusion_coefficient(rs, k, lam, mu, nu) == cell


def test_e6_level_one_is_the_z3_ring_without_the_weyl_group(monkeypatch):
    import fusionkit.rootdata

    def refuse(rs):
        raise AssertionError(f"the Weyl group of {rs} was listed")

    original = fusionkit.rootdata.weyl_elements
    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "fusionkit"]:
        if getattr(module, "weyl_elements", None) is original:
            monkeypatch.setattr(module, "weyl_elements", refuse)
    e6 = build_root_system("E6")
    table = fusion_table(e6, 1)
    one, w6, w1 = (0,) * 6, (0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0)
    assert table.alcove == (one, w6, w1)
    assert len(table.coeffs) == 9 and set(table.coeffs.values()) == {1}
    assert table.coefficient(w1, w1, w6) == 1
    assert table.coefficient(w6, w6, w1) == 1
    assert table.coefficient(w1, w6, one) == 1
    for triple in itertools.product(table.alcove, repeat=3):
        assert table.coefficient(*triple) == fusion_coefficient(e6, 1, *triple)


# -- simple currents -------------------------------------------------------------

@pytest.mark.parametrize("name, order", [
    ("A1", 2), ("A2", 3), ("A3", 4), ("A4", 5), ("B2", 2), ("B3", 2), ("C2", 2), ("C3", 2),
    ("D4", 4), ("D5", 4), ("E6", 3), ("E7", 2), ("E8", 1), ("F4", 1), ("G2", 1),
])
def test_simple_current_group_is_the_centre(name, order):
    rs = build_root_system(name)
    for k in (1, 2):
        assert len(set(current_orbit(rs, k, (0,) * rs.rank))) == order


def test_a_node_of_comark_one_and_mark_two_has_no_current(b2):
    """B2's short node and one node each of G2 and F4 have comark 1 but mark 2 or more."""
    assert b2.comarks[1] == 1 and b2.marks[1] == 2
    assert current_orbit(b2, 1, (0, 0)) == ((0, 0), (1, 0))
    for name in ("G2", "F4"):
        rs = build_root_system(name)
        assert 1 in rs.comarks and 1 not in rs.marks
        assert current_orbit(rs, 1, (0,) * rs.rank) == ((0,) * rs.rank,)


def test_a_current_that_does_not_permute_the_alcove_stops_a_table(monkeypatch, a2):
    def wrong(rs, k, w):
        lam, _, *rest = current_orbit(rs, k, w)
        return (lam, (0, 0), *rest)

    monkeypatch.setattr(fusionkit.fusion, "current_orbit", wrong)
    with pytest.raises(InternalError, match="A2 at level 2"):
        fusion_table(a2, 2)


def test_point_queries_share_current_orbits(monkeypatch, a2):
    """The second query of one class, at the same type and level, computes no orbit."""
    from fusionkit import rootdata

    monkeypatch.setattr(rootdata, "_CURRENT_MEMO", {})
    built = []
    original = rootdata._current_orbit
    monkeypatch.setattr(rootdata, "_current_orbit",
                        lambda rs, k, w: built.append((k, w)) or original(rs, k, w))
    assert fusion_coefficient(a2, 3, (1, 1), (1, 0), (0, 2)) == 1
    first = list(built)
    assert first and len(set(first)) == len(first)
    assert fusion_coefficient(a2, 3, (1, 0), (1, 1), (0, 2)) == 1
    assert built == first


def _currents(rs, k, alcove):
    """The simple currents as permutations of the alcove, identity first."""
    return [dict(zip(alcove, images)) for images in zip(*(current_orbit(rs, k, w) for w in alcove))]


def _invariance_failures(table, j_a, j_b):
    """The triples with N^{J_a J_b nu}_{J_a lam, J_b mu} != N^nu_{lam,mu}."""
    return [
        (lam, mu, nu) for lam, mu, nu in itertools.product(table.alcove, repeat=3)
        if table.coefficient(j_a[lam], j_b[mu], j_a[j_b[nu]]) != table.coefficient(lam, mu, nu)
    ]


@pytest.mark.parametrize("name, k", [
    (name, k) for name in ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4") for k in (1, 2)
] + [("D5", 1)])
def test_kac_walton_tables_are_simple_current_invariant(name, k):
    rs = build_root_system(name)
    oracle = fusion_table(rs, k, backend="kacwalton")  # uses no symmetry
    group = _currents(rs, k, oracle.alcove)
    for j_a, j_b in itertools.product(group, repeat=2):
        assert not _invariance_failures(oracle, j_a, j_b)


def test_a2_reflection_is_not_a_simple_current(a2):
    """The diagram reflection fixing node 1 (J_1 then conjugation) breaks invariance."""
    oracle = fusion_table(a2, 2, backend="kacwalton")
    identity, j_1, _ = _currents(a2, 2, oracle.alcove)
    reflection = {w: dual_weight(a2, j_1[w]) for w in oracle.alcove}
    assert sorted(reflection.values()) == list(oracle.alcove) and reflection != identity
    assert _invariance_failures(oracle, reflection, identity)
