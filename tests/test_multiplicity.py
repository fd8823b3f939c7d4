from functools import cache
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import (
    PreconditionError,
    build_root_system,
    freudenthal_diagram,
    recursion_diagram,
    weight_diagram,
    weyl_dimension,
)
from fusionkit import fusion, multiplicity, repspace
from fusionkit.cli import main
from fusionkit.fusion import level_alcove
from fusionkit.errors import InternalError
from fusionkit.multiplicity import dominant_weights, dominant_weights_up_to_dim
from fusionkit.rootdata import (
    apply_matrix,
    dominant_weights_within,
    is_weight_of,
    root_lattice_coords,
    root_lattice_depth,
    wadd,
    weyl_elements,
    wneg,
    wsub,
)


def test_sl2_diagrams_are_strings_of_ones(a1):
    for m in (*range(7), 2000):
        d = weight_diagram(a1, (m,))
        assert d.table == {(m - 2 * i,): 1 for i in range(m + 1)}


def test_trivial_module(a2):
    d = weight_diagram(a2, (0, 0))
    assert d.table == {(0, 0): 1}
    assert freudenthal_diagram(a2, (0, 0)).table == {(0, 0): 1}


def test_adjoint_a2(a2):
    d = weight_diagram(a2, a2.theta)
    assert d.multiplicity((0, 0)) == 2
    assert d.dimension == 8


def test_freudenthal_examples(a1, a2):
    d = freudenthal_diagram(a1, (3,))
    assert d.table == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}
    assert freudenthal_diagram(a2, (2, 0)).dimension == 6


def test_inner_multiplicity(a2):
    d = weight_diagram(a2, a2.theta)
    assert d.multiplicity(a2.theta) == 1
    assert d.multiplicity(wadd(a2.theta, a2.simple_roots[0])) == 0
    assert d.multiplicity((0, 0)) == 2


def test_rejects_non_dominant(a2):
    with pytest.raises(PreconditionError):
        weight_diagram(a2, (-1, 0))
    with pytest.raises(PreconditionError):
        freudenthal_diagram(a2, (0, -2))
    with pytest.raises(PreconditionError):
        recursion_diagram(a2, (1, -1))


@pytest.mark.parametrize("name,lam", [("A2", (2, 1)), ("B2", (1, 1)), ("G2", (0, 1))])
def test_diagram_invariants(name, lam):
    rs = build_root_system(name)
    d = weight_diagram(rs, lam)
    assert d.table[lam] == 1
    assert d.dimension == weyl_dimension(rs, lam)
    for mat, _ in weyl_elements(rs):
        for nu, m in d.table.items():
            assert d.table[apply_matrix(mat, nu)] == m
    for nu in d.table:
        assert root_lattice_coords(rs, nu, lam) is not None


@pytest.mark.parametrize("name,cap", [("A1", 40), ("A2", 120), ("B2", 120), ("G2", 100)])
def test_recursion_matches_freudenthal(name, cap):
    # small sweep here; the dim <= 500 sweep runs in the acceptance suite
    rs = build_root_system(name)
    lams = dominant_weights_up_to_dim(rs, cap)
    assert lams, name
    for lam in lams:
        assert dict(recursion_diagram(rs, lam).table) == dict(weight_diagram(rs, lam).table)


@pytest.mark.parametrize("name,lams", [
    # criterion 8 stops at dim 500, so these strings are longer than any it sees
    ("A1", [(n,) for n in range(500, 601)]),
    ("A2", [(k, 0) for k in range(31, 49)] + [(k, k) for k in range(7, 25)]),
    ("B2", [(0, k) for k in range(1, 31)]),
    ("G2", [(k, 0) for k in range(1, 16)]),
])
def test_recursion_matches_freudenthal_on_long_strings(name, lams):
    rs = build_root_system(name)
    for lam in lams:
        assert dict(recursion_diagram(rs, lam).table) == dict(freudenthal_diagram(rs, lam).table)


def test_freudenthal_sums_each_string_once(a1, monkeypatch):
    """Summing each alpha-string afresh per weight takes ~n^2/8 steps on V^(n) of A1.

    The walk starts at nu + alpha and steps by ``tuple(map(add, cur, alpha))``: on A1
    one ``add`` with alpha's coordinate 2 (nu + rho adds rho's 1). Each of the n/2
    dominant weights below n starts once and takes at least one step, so the lower
    bound fails if the walk stops going through ``add``.
    """
    calls = 0

    def counting_add(a, b):
        nonlocal calls
        calls += b == 2
        return a + b

    monkeypatch.setattr(multiplicity, "add", counting_add)
    assert freudenthal_diagram(a1, (400,)).dimension == 401
    assert 400 <= calls <= 4 * 401


def test_weyl_dimension_is_evaluated_once_per_weight_on_a_cold_table(monkeypatch, tmp_path):
    """The CLI checks the alcove, ``fusion_table`` checks it again and every module build
    reads dim V^lam; the formula runs once per (root system, weight) all the same."""
    for memo in ("_DIMENSION_MEMO", "_DIAGRAM_MEMO"):
        monkeypatch.setattr(multiplicity, memo, {})
    monkeypatch.setattr(repspace, "_MODULE_MEMO", {})
    formula, calls, evaluated = multiplicity._weyl_formula, [], []

    def counting_formula(rs, lam):
        evaluated.append((rs, tuple(lam)))
        return formula(rs, lam)

    def counting_dimension(rs, lam, dimension=multiplicity.weyl_dimension):
        calls.append(tuple(lam))
        return dimension(rs, lam)

    monkeypatch.setattr(multiplicity, "_weyl_formula", counting_formula)
    for module in (multiplicity, repspace, fusion):
        monkeypatch.setattr(module, "weyl_dimension", counting_dimension)
    assert main(["fusion", "A2", "--level", "3", "--cache-dir", str(tmp_path)]) == 0
    alcove = level_alcove(build_root_system("A2"), 3)
    assert sorted(lam for _, lam in evaluated) == alcove  # once each, and only alcove weights
    assert len(calls) >= 2 * len(alcove)  # the CLI and fusion_table each check every one


def test_recursion_oracle_is_independent_of_freudenthal(a2, monkeypatch):
    """The oracle shares the dominant-weight list and the orbit writer, never a Freudenthal value."""
    def refuse(*args):
        raise AssertionError("the oracle read the production diagram layer")

    class RefusedMemo:
        __getattr__ = __getitem__ = __contains__ = __iter__ = __len__ = __bool__ = refuse

    for name in ("freudenthal_diagram", "weight_diagram"):
        monkeypatch.setattr(multiplicity, name, refuse)
    monkeypatch.setattr(multiplicity, "_DIAGRAM_MEMO", RefusedMemo())
    diagram = recursion_diagram(a2, (2, 1))
    assert diagram.dimension == 15
    assert {nu: m for nu, m in diagram.table.items() if min(nu) >= 0} == {
        (2, 1): 1, (0, 2): 1, (1, 0): 2}


@pytest.mark.parametrize("name, lam", [("A2", (2, 1)), ("B3", (1, 0, 1)), ("G2", (1, 1)),
                                       ("D4", (0, 1, 0, 0))])
def test_the_recursion_after_the_production_diagram_walks_only_the_orbit_of_rho(monkeypatch,
                                                                                 name, lam):
    """Each W-orbit a diagram writes is walked once per (root system, weight) and shared, so
    the recursion, built after ``weight_diagram``, walks only rho's orbit, for its shifts."""
    rs = build_root_system(name)
    monkeypatch.setattr(multiplicity, "_ORBIT_MEMO", {})
    monkeypatch.setattr(multiplicity, "_DIAGRAM_MEMO", {})
    walked, walk = [], multiplicity.weyl_orbit
    monkeypatch.setattr(multiplicity, "weyl_orbit",
                        lambda rs, mu: walked.append(mu) or walk(rs, mu))
    production = weight_diagram(rs, lam)
    assert sorted(walked) == sorted(dominant_weights(rs, lam))  # once per dominant weight
    walked.clear()
    assert dict(recursion_diagram(rs, lam).table) == dict(production.table)
    assert walked == [rs.rho]


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4"])
def test_dominant_weight_depths_are_root_lattice_depths(name):
    rs = build_root_system(name)
    for lam in _dominants_up_to_300(name):
        depths = dominant_weights(rs, lam)
        assert depths == {nu: root_lattice_depth(rs, nu, lam) for nu in depths}
        assert set(depths) == _dominant_weights_by_search(rs, lam)


def _dominant_weights_by_search(rs, lam):
    """Every dominant nu in the rational cone below lam, kept when lam - nu is in the root lattice."""
    def in_cone(nu):
        return all(sum(map(mul, row, wsub(lam, nu))) >= 0 for row in rs.cartan_inverse_num)

    return {nu for nu in dominant_weights_within(rs.rank, in_cone)
            if root_lattice_coords(rs, nu, lam) is not None}


def _wrong_at_0_1(monkeypatch, wrong):
    """Every rule passed to the diagram builder returns ``wrong`` at the weight (0, 1)."""
    build = multiplicity._orbit_diagram
    monkeypatch.setattr(multiplicity, "_orbit_diagram", lambda rs, lam, rule, value: build(
        rs, lam, rule, lambda nu, get: wrong if nu == (0, 1) else value(nu, get)))


@pytest.mark.parametrize("diagram, rule", [(freudenthal_diagram, "Freudenthal"),
                                           (recursion_diagram, "W-recursion")])
@pytest.mark.parametrize("wrong, guard", [(0, r"gives 0 at \(0, 1\) in V\^\(2, 0\)"),
                                          (2, r"diagram of V\^\(2, 0\) totals 9, not dim")])
def test_a_wrong_multiplicity_is_an_internal_error_naming_the_rule(a2, monkeypatch, diagram,
                                                                    rule, wrong, guard):
    """V^(2, 0) of A2 has the dominant weights (2, 0) and (0, 1), both of multiplicity 1."""
    _wrong_at_0_1(monkeypatch, wrong)
    with pytest.raises(InternalError, match=rf"^(the )?{rule} {guard}"):
        diagram(a2, (2, 0))


def test_a_wrong_multiplicity_fails_verify_multiplicity_with_exit_1(monkeypatch, capsys):
    _wrong_at_0_1(monkeypatch, 0)
    assert main(["verify", "multiplicity", "--type", "A2"]) == 1
    # the sweep reads the recursion first, and V^(0, 4) is the first lam with (0, 1) below it
    assert capsys.readouterr().err == "error: W-recursion gives 0 at (0, 1) in V^(0, 4)\n"


@cache
def _dominants_up_to_300(name):
    return dominant_weights_up_to_dim(build_root_system(name), 300)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(("A3", "B3", "C3", "D4", "F4")).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from(_dominants_up_to_300(name)))
))
def test_weight_diagram_matches_the_recursion_beyond_criterion_8(drawn):
    # types the dim <= 500 acceptance sweep (A1, A2, B2, G2) never reaches
    name, lam = drawn
    rs = build_root_system(name)
    production = weight_diagram(rs, lam)
    assert dict(production.table) == dict(recursion_diagram(rs, lam).table)
    assert production.dimension == weyl_dimension(rs, lam)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("A1", "A2", "B2", "G2", "C3", "A3")).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from(_dominants_up_to_300(name)))
))
def test_weight_membership_by_the_dominant_fold_is_diagram_membership(drawn):
    """beta is a weight of V^lam exactly when its dominant conjugate is below lam, checked on
    every weight of the diagram and on every weight one simple root or fundamental weight off."""
    name, lam = drawn
    rs = build_root_system(name)
    table = weight_diagram(rs, lam).table
    units = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    steps = [(0,) * rs.rank, *rs.simple_roots, *units]
    steps += [wneg(step) for step in steps]
    for beta in {wadd(nu, step) for nu in table for step in steps}:
        assert is_weight_of(rs, lam, beta) == (beta in table), (lam, beta)


def test_weyl_dimension_values(a2, g2):
    assert weyl_dimension(a2, (1, 1)) == 8
    assert weyl_dimension(a2, (2, 2)) == 27
    assert weyl_dimension(g2, (1, 0)) == 14  # adjoint of G2
    assert weyl_dimension(g2, (0, 1)) == 7
