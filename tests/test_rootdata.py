import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from fusionkit import (
    CapExceededError,
    ParseError,
    PreconditionError,
    UnsupportedTypeError,
    build_root_system,
    dual_weight,
    form,
    level_alcove,
    pairing,
    parse_cartan_type,
    reflect,
    theta_pairing,
    weyl_dimension,
    weyl_elements,
)
from fusionkit.linalg import RationalMatrix
from fusionkit.multiplicity import dominant_weights_up_to_dim
from fusionkit.rootdata import (
    WEYL_ORDER_CAP,
    CartanType,
    _fold,
    apply_matrix,
    fold_dominant,
    shared,
    wadd,
    wneg,
    weyl_orbit,
    wscale,
    wsub,
)

TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"]
DENSE_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "G2", "F4"]


def _mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def test_parse_basics():
    assert str(parse_cartan_type("A2")) == "A2"
    assert parse_cartan_type("g2").series == "G"
    for bad in ("Z9", "A0", "D2", "E5", "F3", "", "A", "2A"):
        with pytest.raises(ParseError):
            parse_cartan_type(bad)


@pytest.mark.parametrize("name", ["H2", "E5", "E9", "F3", "G3", "B1", "C1", "D2", "A0"])
def test_unsupported_types_are_refused_however_the_type_is_built(name):
    series, rank = name[0], int(name[1:])
    builds = {
        "parse": lambda: parse_cartan_type(name),
        "build from text": lambda: build_root_system(name),
        "direct": lambda: CartanType(series, rank),
        "build from record": lambda: build_root_system(CartanType(series, rank)),
        "_make": lambda: CartanType._make((series, rank)),
        "_replace": lambda: CartanType("A", 2)._replace(series=series, rank=rank),
    }
    for how, build in builds.items():
        with pytest.raises(UnsupportedTypeError):
            build()
            pytest.fail(f"{name} built by {how}")


def _weyl_order(series, rank):
    """|W| from the textbook formulas and the exceptional orders."""
    exceptional = {"E6": 51_840, "E7": 2_903_040, "E8": 696_729_600, "F4": 1152, "G2": 12}
    if series == "A":
        return math.factorial(rank + 1)
    if series in "BC":
        return 2**rank * math.factorial(rank)
    if series == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    return exceptional[f"{series}{rank}"]


SUPPORTED_UP_TO_RANK_8 = [
    *(f"A{n}" for n in range(1, 9)), *(f"B{n}" for n in range(2, 9)),
    *(f"C{n}" for n in range(2, 9)), *(f"D{n}" for n in range(3, 9)),
    "E6", "E7", "E8", "F4", "G2",
]


@pytest.mark.parametrize("name", SUPPORTED_UP_TO_RANK_8)
def test_root_system_records_print_and_count_as_plain_type_names(name):
    """The disk cache and tables key on ``str(rs.cartan_type)``, so the records must print
    as "B3", not a repr."""
    rs = build_root_system(name)
    series, rank = name[0], int(name[1:])
    assert str(rs) == str(rs.cartan_type) == f"{rs.cartan_type}" == name
    assert rs.cartan_type == CartanType(series, rank) == parse_cartan_type(name.lower())
    assert rs.rank == rs.cartan_type.rank == rank == len(rs.simple_roots)
    assert rs.weyl_order == _weyl_order(series, rank)
    assert build_root_system(CartanType(series, rank)) is rs


@pytest.mark.parametrize("name", SUPPORTED_UP_TO_RANK_8)
def test_both_dominant_weight_listings_are_a_filtered_coordinate_box(name):
    """``level_alcove`` and ``dominant_weights_up_to_dim`` list, in order, exactly the
    weights of a box that pass their bound. The alcove box is a_j w_j <= k; the dimension
    box stops each coordinate where c omega_j passes the cap, since dim V^w grows in every
    coordinate."""
    rs = build_root_system(name)
    units = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    for k in (1, 2, 3):
        box = itertools.product(*(range(k // a + 1) for a in rs.comarks))
        assert level_alcove(rs, k) == [w for w in box if theta_pairing(rs, w) <= k]
    for cap in (1, 60, 400):
        tops = [next(c for c in itertools.count() if weyl_dimension(rs, wscale(c + 1, u)) > cap)
                for u in units]
        box = itertools.product(*(range(top + 1) for top in tops))
        assert dominant_weights_up_to_dim(rs, cap) == [
            w for w in box if weyl_dimension(rs, w) <= cap]


@pytest.mark.parametrize("name", SUPPORTED_UP_TO_RANK_8)
def test_the_integer_form_and_weyl_denominator_of_every_type(name):
    """The record's integer form gives (omega_i, alpha_j) = delta_ij (alpha_j, alpha_j)/2 and
    (theta, theta) = 2, its Weyl denominator the trivial and adjoint dimensions, and it
    stores no Fraction."""
    rs = build_root_system(name)
    units = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    assert weyl_dimension(rs, (0,) * rs.rank) == 1
    assert weyl_dimension(rs, rs.theta) == rs.rank + 2 * len(rs.positive_roots)
    for i, omega in enumerate(units):
        for j, alpha in enumerate(rs.simple_roots):
            assert form(rs, omega, alpha) == (i == j) * form(rs, alpha, alpha) / 2
    for x, y in itertools.product(units + list(rs.positive_roots), repeat=2):
        assert form(rs, x, y) == form(rs, y, x)
    assert form(rs, rs.theta, rs.theta) == 2
    assert not any(isinstance(getattr(rs, slot), Fraction) for slot in rs.__slots__)
    assert {type(x) for row in rs.form_num + rs.root_functionals for x in row} == {int}


def test_weyl_cap_rejects_large_types():
    """The Weyl-order cap applies where W is listed, and only there."""
    for name in ("E7", "E8"):  # |W| = 2,903,040 and 696,729,600, over the cap
        rs = build_root_system(name)
        assert rs.weyl_order > WEYL_ORDER_CAP
        with pytest.raises(CapExceededError):
            weyl_elements(rs)
    assert build_root_system(CartanType("E", 6)).weyl_order == 51_840 <= WEYL_ORDER_CAP


def test_a1_data():
    rs = build_root_system("A1")
    assert rs.cartan_matrix == ((2,),)
    assert rs.theta == (2,)  # theta = alpha_1
    assert rs.weyl_order == 2


def test_a2_data(a2):
    assert a2.theta == (1, 1)
    assert a2.dual_coxeter == 3
    assert pairing(a2, a2.theta, 0) == 1
    assert form(a2, a2.rho, a2.rho) == 2


def test_g2_data(g2):
    assert g2.dual_coxeter == 4
    assert form(g2, g2.rho, g2.theta) == 3  # <rho, theta>


@pytest.mark.parametrize("name", TYPES)
def test_simple_roots_are_cartan_columns(name):
    rs = build_root_system(name)
    for i, alpha in enumerate(rs.simple_roots):
        assert alpha == tuple(rs.cartan_matrix[j][i] for j in range(rs.rank))


@pytest.mark.parametrize("name", TYPES)
def test_cartan_matrix_shape(name):
    rs = build_root_system(name)
    m = rs.cartan_matrix
    for i in range(rs.rank):
        assert m[i][i] == 2
        for j in range(rs.rank):
            if i != j:
                assert m[i][j] <= 0
                assert (m[i][j] == 0) == (m[j][i] == 0)


@pytest.mark.parametrize("name", TYPES)
def test_form_pairs_roots_as_cartan_entries(name):
    # (alpha_i, alpha_j^vee) reads the transposed entry in the column convention
    rs = build_root_system(name)
    for i, ai in enumerate(rs.simple_roots):
        for j in range(rs.rank):
            aj = rs.simple_roots[j]
            value = 2 * form(rs, ai, aj) / form(rs, aj, aj)
            assert value == rs.cartan_matrix[j][i]


@pytest.mark.parametrize("name", TYPES)
def test_theta_normalization_and_comarks(name):
    rs = build_root_system(name)
    assert form(rs, rs.theta, rs.theta) == 2
    for i in range(rs.rank):
        ai = rs.simple_roots[i]
        assert rs.comarks[i] == rs.marks[i] * Fraction(form(rs, ai, ai), 2)
    assert rs.dual_coxeter == 1 + form(rs, rs.rho, rs.theta)


@pytest.mark.parametrize("name", TYPES)
def test_theta_is_maximal_root(name):
    rs = build_root_system(name)
    from fusionkit.rootdata import root_lattice_coords

    for beta in rs.positive_roots:
        assert root_lattice_coords(rs, beta, rs.theta) is not None


def _w0_word(rs):
    """The reduced word of w0 read off by folding -rho to rho at the first negative coordinate."""
    x, word = wneg(rs.rho), []
    while (i := next((i for i, c in enumerate(x) if c < 0), None)) is not None:
        word.append(i)
        x = reflect(rs, i, x)
    assert x == rs.rho and len(word) == len(rs.positive_roots)
    return word


@pytest.mark.parametrize("name", TYPES)
def test_w0_word_negates_and_permutes_simples(name):
    rs = build_root_system(name)
    word = _w0_word(rs)
    for i, alpha in enumerate(rs.simple_roots):
        image = alpha
        for j in reversed(word):
            image = reflect(rs, j, image)
        assert image == wneg(rs.simple_roots[rs.dual_permutation[i]])


def test_pairing_examples(a2):
    for i in range(2):
        for j in range(2):
            unit = tuple(1 if t == i else 0 for t in range(2))
            assert pairing(a2, unit, j) == (1 if i == j else 0)
    assert all(pairing(a2, a2.rho, j) == 1 for j in range(2))
    with pytest.raises(PreconditionError):
        pairing(a2, a2.rho, 5)


def test_form_is_symmetric_bilinear(a2):
    rng = random.Random(7)
    for _ in range(20):
        x = tuple(rng.randint(-3, 3) for _ in range(2))
        y = tuple(rng.randint(-3, 3) for _ in range(2))
        z = tuple(rng.randint(-3, 3) for _ in range(2))
        assert form(a2, x, y) == form(a2, y, x)
        assert form(a2, wadd(x, z), y) == form(a2, x, y) + form(a2, z, y)
    assert form(a2, (0, 0), (2, 5)) == 0


def test_reflect_properties(a1, a2):
    assert reflect(a1, 0, (5,)) == (-5,)
    assert reflect(a2, 0, a2.rho) == wsub(a2.rho, a2.simple_roots[0])
    assert reflect(a2, 1, (3, 0)) == (3, 0)  # fixed when the coordinate vanishes
    rng = random.Random(11)
    for _ in range(20):
        x = tuple(rng.randint(-4, 4) for _ in range(2))
        i = rng.randrange(2)
        assert reflect(a2, i, reflect(a2, i, x)) == x
        y = tuple(rng.randint(-4, 4) for _ in range(2))
        assert form(a2, reflect(a2, i, x), reflect(a2, i, y)) == form(a2, x, y)


@pytest.mark.parametrize("name,order", [("A1", 2), ("A2", 6), ("B2", 8), ("G2", 12)])
def test_weyl_group_order(name, order):
    assert len(weyl_elements(build_root_system(name))) == order


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_weyl_group_structure(name):
    rs = build_root_system(name)
    group = weyl_elements(rs)
    signs = {mat: sign for mat, sign in group}
    idmat = group[0][0]
    assert all(idmat[i][i] == 1 for i in range(rs.rank))
    # closure and the sign homomorphism
    for m1, s1 in group:
        for m2, s2 in group:
            prod = _mul(m1, m2)
            assert signs[prod] == s1 * s2
    assert sum(1 for m, _ in group if m == idmat) == 1
    # every element is a form isometry and permutes the roots
    roots = set(rs.positive_roots) | {wneg(r) for r in rs.positive_roots}
    rng = random.Random(3)
    for mat, _ in group:
        assert {apply_matrix(mat, r) for r in roots} == roots
        for _ in range(3):
            x = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            y = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            assert form(rs, apply_matrix(mat, x), apply_matrix(mat, y)) == form(rs, x, y)


def _dense_reflections(rs):
    """r_i as dense matrices on fundamental-weight coordinates: x -> x - x_i alpha_i."""
    n, cartan = rs.rank, rs.cartan_matrix
    return [
        tuple(
            tuple(int(j == m) - (cartan[j][i] if m == i else 0) for m in range(n))
            for j in range(n)
        )
        for i in range(n)
    ]


def _dense_weyl_elements(rs):
    """W by the breadth-first walk of ``weyl_elements``, each step a dense product r_i @ w,
    told from the elements listed by the matrix itself, not by its image of rho."""
    refls = _dense_reflections(rs)
    ident = tuple(tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank))
    elements, seen, queue = [(ident, 1)], {ident}, [(ident, 1)]
    while queue:
        nxt = []
        for mat, sign in queue:
            for r in refls:
                cand = _mul(r, mat)
                if cand not in seen:
                    seen.add(cand)
                    elements.append((cand, -sign))
                    nxt.append((cand, -sign))
        queue = nxt
    return elements


@pytest.mark.parametrize("name", DENSE_TYPES)
def test_weyl_elements_listed_as_by_dense_products(name):
    rs = build_root_system(name)
    assert weyl_elements(rs) == _dense_weyl_elements(rs)  # same elements, order and signs


def test_the_d5_listing_is_pinned():
    """sha256 of the repr of W(D5) as listed when "seen" keyed on the matrices."""
    listing = repr(weyl_elements(build_root_system("D5"))).encode()
    assert hashlib.sha256(listing).hexdigest() == (
        "21a6fac95651253354682aca38f671f47ef50c795b04763beb5b41ce547f0e02"
    )


@pytest.mark.parametrize("name", TYPES)
def test_w0_matrix_is_the_dense_product_of_its_word(name):
    """The element of ``weyl_elements`` sending rho to -rho is the dense product of w0's word."""
    rs = build_root_system(name)
    refls = _dense_reflections(rs)
    word = _w0_word(rs)
    w0 = refls[word[0]]
    for i in word[1:]:
        w0 = _mul(w0, refls[i])
    neg_rho = wneg(rs.rho)
    listed = [(mat, sign) for mat, sign in weyl_elements(rs) if apply_matrix(mat, rs.rho) == neg_rho]
    assert listed == [(w0, -1 if len(word) % 2 else 1)]


@pytest.mark.parametrize("name", DENSE_TYPES)
def test_dual_permutation_is_minus_w0_on_fundamental_weights(name):
    """-w0 omega_i = omega_sigma(i), with w0 the element of the dense W that sends rho to -rho."""
    rs = build_root_system(name)
    (w0,) = [mat for mat, _ in _dense_weyl_elements(rs) if apply_matrix(mat, rs.rho) == wneg(rs.rho)]
    units = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    for i, omega in enumerate(units):
        assert wneg(apply_matrix(w0, omega)) == units[rs.dual_permutation[i]]


@pytest.mark.parametrize(
    "name,sigma",
    [("E6", (5, 1, 4, 3, 2, 0)), ("E7", tuple(range(7))), ("E8", tuple(range(8)))],
    ids=["E6", "E7", "E8"],
)
def test_dual_permutation_of_e_types_preserves_the_cartan_matrix(name, sigma):
    rs = build_root_system(name)
    assert rs.dual_permutation == sigma
    m, n = rs.cartan_matrix, rs.rank
    assert all(m[sigma[i]][sigma[j]] == m[i][j] for i in range(n) for j in range(n))


def test_dual_weight_examples(a1, a2):
    assert dual_weight(a2, (1, 0)) == (0, 1)
    assert dual_weight(a1, (7,)) == (7,)
    for name in TYPES:
        rs = build_root_system(name)
        assert dual_weight(rs, rs.theta) == rs.theta


@pytest.mark.parametrize("name", TYPES)
def test_dual_weight_is_involution(name):
    rs = build_root_system(name)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(100):
        w = tuple(rng.randint(-5, 5) for _ in range(rs.rank))
        assert dual_weight(rs, dual_weight(rs, w)) == w
    for _ in range(20):
        w = tuple(rng.randint(0, 5) for _ in range(rs.rank))
        assert all(c >= 0 for c in dual_weight(rs, w))


def test_fold_dominant_examples(a1):
    # mu + rho for mu = 3, -1 and -2
    assert fold_dominant(a1, (4,)) == ((4,), 1)
    assert 0 in fold_dominant(a1, (0,))[0]  # on the wall
    assert fold_dominant(a1, (-1,)) == ((1,), -1)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_fold_dominant_is_orbit_invariant(name):
    """Every w(mu + rho) folds to the point of mu + rho, with sign eps(w) times its sign,
    and a point on a wall is seen as a zero coordinate."""
    rs = build_root_system(name)
    rng = random.Random(5)
    for _ in range(25):
        x = wadd(tuple(rng.randint(-4, 4) for _ in range(rs.rank)), rs.rho)
        point, sign = fold_dominant(rs, x)
        for mat, wsign in weyl_elements(rs):
            point2, sign2 = fold_dominant(rs, apply_matrix(mat, x))
            assert point2 == point
            assert (0 in point) or sign2 == sign * wsign


def test_dominant_in_orbit(a2):
    rng = random.Random(9)
    for _ in range(30):
        mu = tuple(rng.randint(-4, 4) for _ in range(2))
        rep = fold_dominant(a2, mu)[0]
        assert all(c >= 0 for c in rep)
        assert any(apply_matrix(m, mu) == rep for m, _ in weyl_elements(a2))


@pytest.mark.parametrize("name", TYPES)
def test_rho_orbit_walk_meets_each_weyl_element_once_at_its_length(name):
    rs = build_root_system(name)
    levels = weyl_orbit(rs, rs.rho)
    assert len(levels) == len(rs.positive_roots) + 1  # the longest element has length |Phi+|
    assert levels[-1] == [wneg(rs.rho)]
    points = [x for level in levels for x in level]
    assert len(points) == len(set(points)) == rs.weyl_order
    if rs.weyl_order <= 1152:
        by_image = {apply_matrix(mat, rs.rho): sign for mat, sign in weyl_elements(rs)}
        for length, level in enumerate(levels):
            assert all(by_image[x] == (-1) ** length for x in level)


def _fold_one_reflection_at_a_time(rs, x, skip=None):
    """The chamber fold as specified: ``reflect`` at the first negative coordinate but
    ``skip``, one reflection per step, until there is none; (point, steps)."""
    steps = 0
    while (i := next((i for i, c in enumerate(x) if c < 0 and i != skip), None)) is not None:
        x, steps = reflect(rs, i, x), steps + 1
    return x, steps


@pytest.mark.parametrize("name", SUPPORTED_UP_TO_RANK_8)
def test_the_chamber_fold_reflects_as_one_reflection_at_a_time_would(name):
    """``_fold`` reflects one list in place; it must reach the same point in the same number
    of steps as reflecting a tuple at a time, with and without a skipped node."""
    rs = build_root_system(name)
    rng = random.Random(sum(map(ord, name)))
    for _ in range(40):
        x = tuple(rng.randint(-5, 5) for _ in range(rs.rank))
        for skip in (None, *range(rs.rank)):
            assert _fold(rs.simple_roots, x, skip) == _fold_one_reflection_at_a_time(rs, x, skip)
        point, steps = _fold_one_reflection_at_a_time(rs, x)
        assert fold_dominant(rs, x) == (point, (-1) ** steps)


def _orbit_walk_through_reflect(rs, mu):
    """The orbit walk as specified: each level reflects the last at every positive coordinate,
    in order, through the range-checked ``reflect``, keeping the points not seen before."""
    levels = [[mu]]
    seen = {mu}
    while True:
        nxt = []
        for x in levels[-1]:
            for i, c in enumerate(x):
                if c > 0 and (y := reflect(rs, i, x)) not in seen:
                    seen.add(y)
                    nxt.append(y)
        if not nxt:
            return levels
        levels.append(nxt)


def test_rho_orbit_levels_are_listed_as_the_reflect_walk_lists_them():
    """The levels of the orbit of rho, as lists: the order fixes the recursion's shifts and
    every diagram's key order. The digest was taken from the walk through ``reflect``."""
    names = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4")
    digest = hashlib.sha256()
    for name in names:
        rs = build_root_system(name)
        levels = weyl_orbit(rs, rs.rho)
        assert levels == _orbit_walk_through_reflect(rs, rs.rho)
        digest.update(repr(levels).encode())
    assert digest.hexdigest() == "6e21c1a3c6721fb8bda8d184b4ed4f0ec56e515e04ff5af170fd979280d14249"
    for name in ("A3", "B3", "C3", "G2", "F4"):
        rs = build_root_system(name)
        rng = random.Random(3)
        for _ in range(5):
            mu = tuple(rng.choice((0, 0, 1, 2)) for _ in range(rs.rank))
            assert weyl_orbit(rs, mu) == _orbit_walk_through_reflect(rs, mu)


@pytest.mark.parametrize("name", ["A2", "B2", "C3", "G2"])
def test_orbit_walk_of_a_dominant_weight_is_its_weyl_orbit(name):
    rs = build_root_system(name)
    rng = random.Random(11)
    for _ in range(10):
        mu = tuple(rng.choice((0, 0, 1, 2)) for _ in range(rs.rank))
        walked = [x for level in weyl_orbit(rs, mu) for x in level]
        assert len(walked) == len(set(walked))
        assert set(walked) == {apply_matrix(mat, mu) for mat, _ in weyl_elements(rs)}
    with pytest.raises(PreconditionError):
        weyl_orbit(rs, (-1,) + (0,) * (rs.rank - 1))


@pytest.mark.parametrize("name", TYPES)
def test_root_lattice_depth_matches_rational_simple_root_coordinates(name):
    from fusionkit.rootdata import root_lattice_depth

    rs = build_root_system(name)
    minv = RationalMatrix(rs.cartan_matrix).inverse()
    rng = random.Random(13)
    zero = (0,) * rs.rank
    for _ in range(100):
        w = tuple(rng.randint(-4, 4) for _ in range(rs.rank))
        coords = [sum(a * b for a, b in zip(minv.data[i], w)) for i in range(rs.rank)]
        expect = int(sum(coords)) if all(c.denominator == 1 and c >= 0 for c in coords) else None
        assert root_lattice_depth(rs, zero, w) == expect
    for alpha in rs.positive_roots:
        assert root_lattice_depth(rs, zero, alpha) >= 1
        assert root_lattice_depth(rs, alpha, zero) is None


def test_threads_racing_on_one_key_all_get_the_first_object_published():
    import sys
    import threading
    import time

    memo, built, got = {}, [], []
    start = threading.Barrier(8, timeout=30)

    def build():
        time.sleep(0.001)  # let the other threads miss too
        built.append(object())
        return built[-1]

    def worker():
        start.wait()
        got.append(shared(memo, "key", build))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8 and all(obj is memo["key"] for obj in got)
    assert any(obj is memo["key"] for obj in built)
    assert shared(memo, "key", build) is memo["key"] and len(built) <= 8
