import itertools
import random

import pytest

from fusionkit import (
    PreconditionError,
    build_root_system,
    dual_weight,
    greedy_decompose,
    stability_threshold,
    tensor_decompose,
    tensor_multiplicity,
    weight_diagram,
    weight_string,
    weyl_dimension,
)
from fusionkit.rootdata import apply_matrix, is_dominant, root_pairing, wadd, weyl_elements, wsub


def test_sl2_clebsch_gordan(a1):
    assert tensor_decompose(a1, (2,), (3,)).terms == {(1,): 1, (3,): 1, (5,): 1}
    assert tensor_decompose(a1, (2,), (2,)).terms == {(0,): 1, (2,): 1, (4,): 1}
    for nu in ((5,), (3,), (1,)):
        assert tensor_multiplicity(a1, (2,), (3,), nu) == 1
    assert tensor_multiplicity(a1, (2,), (3,), (7,)) == 0


def test_tensor_with_trivial_is_delta(a2):
    lam = (2, 1)
    assert tensor_decompose(a2, lam, (0, 0)).terms == {lam: 1}
    assert tensor_multiplicity(a2, lam, (0, 0), lam) == 1
    assert tensor_multiplicity(a2, lam, (0, 0), (1, 0)) == 0


def test_a2_fund_times_antifund(a2):
    assert tensor_multiplicity(a2, (1, 0), (0, 1), a2.theta) == 1
    assert tensor_multiplicity(a2, (1, 0), (0, 1), (0, 0)) == 1
    assert tensor_decompose(a2, (1, 0), (0, 1)).terms == {(0, 0): 1, (1, 1): 1}


def test_a2_adjoint_square(a2):
    terms = tensor_decompose(a2, a2.theta, a2.theta).terms
    assert terms == {(2, 2): 1, (3, 0): 1, (0, 3): 1, (1, 1): 2, (0, 0): 1}
    total = sum(m * weyl_dimension(a2, nu) for nu, m in terms.items())
    assert total == 64


@pytest.mark.parametrize(
    "name,pairs",
    [
        ("A1", [((m,), (n,)) for m in range(5) for n in range(5)]),
        ("A2", [((a, b), (c, d)) for a, b, c, d in itertools.product(range(3), repeat=4)][:40]),
    ],
)
def test_dimensions_commutativity_and_greedy_oracle(name, pairs):
    rs = build_root_system(name)
    for lam, mu in pairs:
        terms = tensor_decompose(rs, lam, mu).terms
        assert terms == tensor_decompose(rs, mu, lam).terms
        assert terms == greedy_decompose(rs, lam, mu)
        total = sum(m * weyl_dimension(rs, nu) for nu, m in terms.items())
        assert total == weyl_dimension(rs, lam) * weyl_dimension(rs, mu)


def _textbook_racah_speiser(rs, lam, mu, nu):
    """sum_w eps(w) m_lam(w(nu+rho) - (mu+rho)), each w applied to nu+rho."""
    table = weight_diagram(rs, lam).table
    nu_rho, mu_rho = wadd(nu, rs.rho), wadd(mu, rs.rho)
    return sum(
        sign * table.get(wsub(apply_matrix(mat, nu_rho), mu_rho), 0)
        for mat, sign in weyl_elements(rs)
    )


def _small_dominant(rng, rs, cap):
    while True:
        w = tuple(rng.choice((0, 0, 1, 1, 2)) for _ in range(rs.rank))
        if weyl_dimension(rs, w) <= cap:
            return w


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2"])
def test_orbit_sum_equals_the_textbook_racah_speiser_sum(name):
    rs = build_root_system(name)
    rng = random.Random(sum(map(ord, name)))
    values = []
    for _ in range(8):
        lam, mu = _small_dominant(rng, rs, 120), _small_dominant(rng, rs, 120)
        nus = {wadd(beta, mu) for beta in weight_diagram(rs, lam).table}
        nus = {nu for nu in nus if is_dominant(nu)}
        nus |= {_small_dominant(rng, rs, 400) for _ in range(4)}
        for nu in sorted(nus):
            got = tensor_multiplicity(rs, lam, mu, nu)
            assert got == _textbook_racah_speiser(rs, lam, mu, nu), (lam, mu, nu)
            values.append(got)
    assert 0 in values and max(values) > 1


@pytest.mark.parametrize("name,lam,mu,weights_fewer,top", [
    ("D5", (0, 1, 0, 0, 0), (0, 0, 0, 1, 1), True, 2),
    ("D5", (1, 0, 0, 1, 0), (0, 0, 0, 1, 1), True, 2),
    ("B4", (0, 1, 0, 0), (1, 0, 0, 1), True, 2),
    ("F4", (0, 0, 0, 1), (0, 0, 1, 1), True, 2),
    ("A1", (40,), (7,), False, 1),
    ("A2", (4, 4), (2, 1), False, 2),
    ("G2", (3, 2), (1, 1), False, 4),
])
def test_both_index_sets_equal_the_textbook_racah_speiser_sum(name, lam, mu, weights_fewer, top):
    """The sum runs over the weights of V^lam when they are fewer than |W|, else over the orbit."""
    rs = build_root_system(name)
    table = weight_diagram(rs, lam).table
    assert (len(table) < rs.weyl_order) is weights_fewer
    nus = {nu for nu in (wadd(beta, mu) for beta in table) if is_dominant(nu)}
    nus.add(wadd(lam, wadd(mu, mu)))  # above lam + mu, so no copy
    values = []
    for nu in sorted(nus):
        got = tensor_multiplicity(rs, lam, mu, nu)
        assert got == _textbook_racah_speiser(rs, lam, mu, nu), nu
        values.append(got)
    assert 0 in values and max(values) == top


def test_orbit_points_refuses_a_group_that_repeats_an_element(monkeypatch):
    from fusionkit import InternalError, tensor

    b2 = build_root_system("B2")
    group = weyl_elements(b2)
    monkeypatch.setattr(tensor, "_ORBIT_MEMO", {})
    with pytest.raises(InternalError):
        tensor._orbit_points(b2, group + group[1:2], wadd((1, 0), b2.rho))
    assert tensor._ORBIT_MEMO == {}
    assert tensor._orbit_points(b2, group, wadd((1, 0), b2.rho)) == {
        apply_matrix(mat, (2, 1)): sign for mat, sign in group
    }


def test_threads_decomposing_on_one_type_share_each_orbit(monkeypatch):
    import sys
    import threading

    from fusionkit import tensor

    b3 = build_root_system("B3")
    pairs = [
        (lam, mu)
        for lam in ((1, 0, 0), (0, 0, 1), (1, 0, 1))
        for mu in ((0, 1, 0), (1, 0, 1), (0, 0, 2))
    ]
    serial = {pair: tensor_decompose(b3, *pair).terms for pair in pairs}
    monkeypatch.setattr(tensor, "_ORBIT_MEMO", {})
    handed_out, errors = [], []
    orbit_points = tensor._orbit_points

    def recording(rs, group, mu_rho):
        got = orbit_points(rs, group, mu_rho)
        handed_out.append((mu_rho, got))
        return got

    monkeypatch.setattr(tensor, "_orbit_points", recording)

    def worker(seed):
        order = list(pairs)
        random.Random(seed).shuffle(order)
        try:
            for pair in order:
                if tensor_decompose(b3, *pair).terms != serial[pair]:
                    errors.append(pair)
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)

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
    memo = tensor._ORBIT_MEMO
    assert set(memo) == {(b3, wadd(mu, b3.rho)) for _, mu in pairs}
    assert all(got is memo[b3, mu_rho] for mu_rho, got in handed_out)


def test_conjugation_symmetry(a2):
    for lam, mu in [((1, 0), (1, 1)), ((2, 0), (1, 2)), ((2, 1), (2, 1))]:
        for nu in tensor_decompose(a2, lam, mu).terms:
            assert tensor_multiplicity(a2, lam, mu, nu) == tensor_multiplicity(
                a2, dual_weight(a2, lam), dual_weight(a2, mu), dual_weight(a2, nu)
            )


def test_rejects_non_dominant(a2):
    with pytest.raises(PreconditionError):
        tensor_multiplicity(a2, (-1, 0), (1, 0), (0, 0))
    with pytest.raises(PreconditionError):
        tensor_decompose(a2, (1, 0), (0, -1))


def test_weight_string_examples(a1, a2):
    d = weight_diagram(a1, (2,))
    s = weight_string(d, (0,), a1.simple_roots[0])
    assert (s.down, s.up) == (1, 1)
    assert weight_string(d, (2,), a1.simple_roots[0]).up == 0
    dth = weight_diagram(a2, a2.theta)
    s = weight_string(dth, (0, 0), a2.theta)
    assert (s.down, s.up) == (1, 1)
    with pytest.raises(PreconditionError):
        weight_string(dth, (5, 5), a2.theta)


def test_a_zero_direction_is_refused_instead_of_scanned_forever(a2):
    with pytest.raises(PreconditionError, match="nonzero"):
        weight_string(weight_diagram(a2, (1, 1)), (1, 1), (0, 0))


@pytest.mark.parametrize("name,lam", [("A1", (4,)), ("A2", (1, 1)), ("A2", (2, 1)), ("B2", (1, 1))])
def test_string_symmetry(name, lam):
    # up - down = -<beta, alpha> along every root direction
    rs = build_root_system(name)
    d = weight_diagram(rs, lam)
    for beta in d.table:
        for alpha in list(rs.simple_roots) + [rs.theta]:
            s = weight_string(d, beta, alpha)
            assert s.up - s.down == -root_pairing(rs, beta, alpha)


def test_stability_threshold_examples(a1, a2):
    assert stability_threshold(weight_diagram(a1, (2,)), (0,), 0) == 1
    assert stability_threshold(weight_diagram(a1, (2,)), (2,), 0) == 0
    assert stability_threshold(weight_diagram(a2, a2.theta), (0, 0), 0) == 1


def test_stability_property_mini_sweep(a2):
    # the full sweep is acceptance criterion 7
    lam = a2.theta
    d = weight_diagram(a2, lam)
    for beta in d.table:
        for j in range(2):
            q = stability_threshold(d, beta, j)
            for mu in itertools.product(range(q, q + 2), repeat=2):
                if not is_dominant(wadd(beta, mu)) or mu[j] < q:
                    continue
                base = tensor_multiplicity(a2, lam, mu, wadd(beta, mu))
                grown = tuple(c + (1 if t == j else 0) for t, c in enumerate(mu))
                assert tensor_multiplicity(a2, lam, grown, wadd(beta, grown)) == base
