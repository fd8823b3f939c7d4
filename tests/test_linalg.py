from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit.errors import InternalError
from fusionkit.linalg import RationalMatrix, _bareiss_step


def test_kernel_of_zero_matrix_is_everything():
    assert RationalMatrix.zeros(3, 3).kernel().cols == 3


def test_kernel_of_identity_is_trivial():
    assert RationalMatrix.identity(4).kernel().cols == 0


def test_kernel_of_rank_one_matrix():
    m = RationalMatrix([[1, 2], [2, 4]])
    k = m.kernel()
    assert k.cols == 1
    # spanned by (2, -1) up to scale
    (x,), (y,) = k.data
    assert x * (-1) == y * 2
    assert (m @ k).is_zero()


def test_kernel_columns_are_independent():
    m = RationalMatrix([[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 1, 1]])
    k = m.kernel()
    assert k.cols == m.cols - m.rank() == 2
    assert (m @ k).is_zero()
    assert k.rank() == k.cols


def test_zero_row_matrix_behaves_as_zero_map():
    m = RationalMatrix.zeros(0, 5)
    assert m.rank() == 0
    assert m.kernel().cols == 5


def test_rank_and_inverse():
    m = RationalMatrix([[2, 1], [1, 2]])
    assert m.rank() == 2
    inv = m.inverse()
    assert inv @ m == RationalMatrix.identity(2)
    assert inv[0, 0] == Fraction(2, 3)
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [2, 4]]).inverse()


def test_matmul_shapes_and_vstack():
    a = RationalMatrix([[1, 0, 2]])
    b = RationalMatrix([[1], [1], [1]])
    assert (a @ b)[0, 0] == 3
    stacked = RationalMatrix.vstack([a, a])
    assert (stacked.rows, stacked.cols) == (2, 3)
    with pytest.raises(ValueError):
        a @ a


def test_kron_orders_pairs_row_major():
    a = RationalMatrix([[1, 2]])
    b = RationalMatrix([[1], [3]])
    k = a.kron(b)
    assert (k.rows, k.cols) == (2, 2)
    assert k.data == ((1, 2), (3, 6))


# -- property tests against a plain Fraction reference --------------------------
#
# Inputs are drawn as lists of Fractions. The reference works on those lists
# directly with the list-of-Fraction loop code the integer matrices replaced:
# textbook products and row reduction with exact pivots.

def _ref_product(a, b, rows, inner, cols):
    return [[sum((a[i][t] * b[t][j] for t in range(inner)), Fraction(0)) for j in range(cols)]
            for i in range(rows)]


def _ref_rref(m, cols):
    m = [list(row) for row in m]
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _ref_kernel(m, cols):
    rref, pivots = _ref_rref(m, cols)
    out = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][f]
        out.append(v)
    return [[v[i] for v in out] for i in range(cols)]


def _as_lists(m):
    return [list(row) for row in m.data]


_entries = st.one_of(
    st.integers(-4, 4).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@st.composite
def _lists(draw, rows=None, cols=None):
    """(rows of Fractions, column count); now and then row 2 = 2 row 0 - row 1."""
    rows = draw(st.integers(0, 5)) if rows is None else rows
    cols = draw(st.integers(0, 5)) if cols is None else cols
    data = [[draw(_entries) for _ in range(cols)] for _ in range(rows)]
    if rows >= 3 and draw(st.booleans()):
        data[2] = [2 * a - b for a, b in zip(data[0], data[1])]
    return data, cols


@st.composite
def _pairs(draw, same_shape):
    a, cols = draw(_lists())
    b = draw(_lists(rows=len(a) if same_shape else cols, cols=cols if same_shape else None))
    return (a, cols), b


@settings(max_examples=150, deadline=None)
@given(_pairs(same_shape=False))
def test_matmul_matches_reference(pair):
    (a, inner), (b, cols) = pair
    got = RationalMatrix(a, inner) @ RationalMatrix(b, cols)
    assert (got.rows, got.cols) == (len(a), cols)
    assert _as_lists(got) == _ref_product(a, b, len(a), inner, cols)


@settings(max_examples=150, deadline=None)
@given(_pairs(same_shape=True), _entries)
def test_add_sub_scale_match_reference(pair, s):
    (a, cols), (b, _) = pair
    ma, mb = RationalMatrix(a, cols), RationalMatrix(b, cols)
    assert _as_lists(ma + mb) == [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]
    assert _as_lists(ma - mb) == [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]
    assert _as_lists(ma.scale(s)) == [[s * x for x in row] for row in a]
    assert -ma == ma.scale(-1)
    assert (ma - ma).is_zero() and ma - ma == RationalMatrix.zeros(len(a), cols)


@settings(max_examples=150, deadline=None)
@given(_lists(), _lists())
def test_transpose_vstack_kron_match_reference(first, second):
    (a, ac), (b, bc) = first, second
    ma, mb = RationalMatrix(a, ac), RationalMatrix(b, bc)
    assert _as_lists(ma) == a
    t = ma.transpose()
    assert (t.rows, t.cols) == (ac, len(a))
    assert _as_lists(t) == [[a[i][j] for i in range(len(a))] for j in range(ac)]
    assert t.transpose() == ma
    parts = [a, b, a] if bc == ac else [a, a]
    stacked = RationalMatrix.vstack([RationalMatrix(p, ac) for p in parts], cols=ac)
    assert (stacked.rows, stacked.cols) == (sum(map(len, parts)), ac)
    assert _as_lists(stacked) == [row for p in parts for row in p]
    k = ma.kron(mb)
    assert (k.rows, k.cols) == (len(a) * len(b), ac * bc)
    assert _as_lists(k) == [
        [ra[j] * rb[q] for j in range(ac) for q in range(bc)] for ra in a for rb in b
    ]


@settings(max_examples=200, deadline=None)
@given(_lists())
def test_rank_kernel_inverse_match_reference(drawn):
    a, cols = drawn
    m = RationalMatrix(a, cols)
    rank = len(_ref_rref(a, cols)[1])
    assert m.rank() == rank
    assert m.rank() == len(m.rref()[0]) == m.cols - m.kernel().cols
    k = m.kernel()
    assert (k.rows, k.cols) == (cols, cols - rank)
    assert (m @ k).is_zero()
    assert _as_lists(k) == _ref_kernel(a, cols)
    n = len(a)
    if n == cols:
        if rank < n:
            with pytest.raises(ValueError):
                m.inverse()
        else:
            inv = m.inverse()
            assert inv @ m == RationalMatrix.identity(n) == m @ inv
            aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
            rref, _ = _ref_rref(aug, 2 * n)
            assert _as_lists(inv) == [row[n:] for row in rref]


@settings(max_examples=150, deadline=None)
@given(_lists(), st.integers(1, 6))
def test_equal_values_by_different_routes_are_equal_and_hash_equal(drawn, c):
    a, cols = drawn
    m = RationalMatrix(a, cols)
    routes = [
        RationalMatrix([[Fraction(str(x)) for x in row] for row in a], cols),
        RationalMatrix([[int(x) if x.denominator == 1 else x for x in row] for row in a], cols),
        m.scale(c).scale(Fraction(1, c)),
        m.transpose().transpose(),
        (m + m) - m,
        RationalMatrix.identity(len(a)) @ m,
        RationalMatrix.vstack([m.scale(c)], cols=cols).scale(Fraction(1, c)),
        RationalMatrix.block([len(a)], [cols // 2, cols - cols // 2], {
            (0, 0): m.select(range(len(a)), range(cols // 2)),
            (0, 1): m.select(range(len(a)), range(cols // 2, cols)),
        }),
    ]
    for other in routes:
        assert other == m and hash(other) == hash(m)
        assert _as_lists(other) == a


@st.composite
def _block_grids(draw):
    """Block heights, widths, and the Fraction rows of each present block."""
    heights = draw(st.lists(st.integers(0, 3), max_size=3))
    widths = draw(st.lists(st.integers(0, 3), max_size=3))
    grid = {}
    for r, h in enumerate(heights):
        for c, w in enumerate(widths):
            if draw(st.booleans()):
                grid[r, c] = [[draw(_entries) for _ in range(w)] for _ in range(h)]
    return heights, widths, grid


@settings(max_examples=150, deadline=None)
@given(_block_grids())
def test_block_matches_concatenated_lists(drawn):
    heights, widths, grid = drawn
    got = RationalMatrix.block(
        heights, widths, {rc: RationalMatrix(b, widths[rc[1]]) for rc, b in grid.items()}
    )
    expect = [
        [x for c, w in enumerate(widths) for x in (grid[r, c][i] if (r, c) in grid else [0] * w)]
        for r, h in enumerate(heights)
        for i in range(h)
    ]
    assert (got.rows, got.cols) == (sum(heights), sum(widths))
    assert _as_lists(got) == expect
    if heights and widths:
        with pytest.raises(ValueError):
            RationalMatrix.block(heights, widths, {(0, 0): RationalMatrix.zeros(heights[0] + 1, 1)})


@settings(max_examples=150, deadline=None)
@given(_lists(), st.data())
def test_select_matches_reference(drawn, data):
    a, cols = drawn
    rows = data.draw(st.lists(st.integers(0, len(a) - 1), max_size=5)) if a else []
    picks = data.draw(st.lists(st.integers(0, cols - 1), max_size=5)) if cols else []
    got = RationalMatrix(a, cols).select(rows, picks)
    assert (got.rows, got.cols) == (len(rows), len(picks))
    assert _as_lists(got) == [[a[i][j] for j in picks] for i in rows]


@settings(max_examples=200, deadline=None)
@given(_lists())
def test_rref_pivots_are_first_wins_and_rows_rebuild_every_column(drawn):
    a, cols = drawn
    pivots, rows = RationalMatrix(a, cols).rref()
    columns = [[row[j] for row in a] for j in range(cols)]

    def rank_of(picked):
        return len(_ref_rref([[col[i] for col in picked] for i in range(len(a))], len(picked))[1])

    first_wins = [j for j in range(cols) if rank_of(columns[: j + 1]) > rank_of(columns[:j])]
    assert pivots == first_wins
    ref, _ = _ref_rref(a, cols)
    assert (rows.rows, rows.cols) == (len(pivots), cols)
    assert _as_lists(rows) == ref[: len(pivots)]
    r = _as_lists(rows)
    for s, col in enumerate(columns):
        rebuilt = [sum((r[t][s] * columns[p][i] for t, p in enumerate(pivots)), Fraction(0))
                   for i in range(len(a))]
        assert rebuilt == col


def _ref_det(m):
    m = [list(row) for row in m]
    det = Fraction(1)
    for c in range(len(m)):
        pr = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: _lists(rows=n, cols=n)), st.integers(0, 2))
def test_is_positive_definite_matches_leading_minors(drawn, kind):
    b, n = drawn
    bt = [[b[i][j] for i in range(n)] for j in range(n)]
    if kind == 0:  # symmetric, often indefinite
        a = [[b[i][j] + bt[i][j] for j in range(n)] for i in range(n)]
    else:  # B^T B is semidefinite; adding 1 makes it definite
        a = _ref_product(bt, b, n, n, n)
        if kind == 2:
            a = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]
    expect = all(_ref_det([row[:k] for row in a[:k]]) > 0 for k in range(1, n + 1))
    assert RationalMatrix(a, n).is_positive_definite() == expect
    if kind == 2:
        assert expect


def test_zero_shapes_and_normal_form():
    for rows, cols in ((0, 0), (0, 3), (3, 0)):
        z = RationalMatrix.zeros(rows, cols)
        assert z.rank() == 0 and z.is_zero()
        assert (z.kernel().rows, z.kernel().cols) == (cols, cols)
        assert (z.transpose().rows, z.transpose().cols) == (cols, rows)
        assert z == RationalMatrix([[0] * cols for _ in range(rows)], cols)
    assert RationalMatrix.zeros(0, 0).inverse() == RationalMatrix.zeros(0, 0)
    half = RationalMatrix([[Fraction(1, 2), Fraction(-3, 4)], [0, Fraction(5, 6)]])
    assert half.den == 12 and half.num == ((6, -9), (0, 10))
    assert (half.scale(12).den, half.scale(0).den) == (1, 1)
    assert half[1, 1] == Fraction(5, 6) and half.data[0] == (Fraction(1, 2), Fraction(-3, 4))


def test_inexact_bareiss_division_raises():
    # a division that Sylvester's identity rules out is reported, not truncated
    with pytest.raises(InternalError):
        _bareiss_step([1], [0], 1, 0, 2)


@pytest.mark.parametrize("bad", [0.1, 1.0, float("nan"), "1/2", "3"])
def test_floats_and_strings_are_refused_as_entries_and_scale_factors(bad):
    """Fraction(0.1) would store 3602879701896397/36028797018963968 without a word."""
    with pytest.raises(TypeError, match="not an exact rational"):
        RationalMatrix([[bad, 1]])
    with pytest.raises(TypeError, match="not an exact rational"):
        RationalMatrix([[1, 0], [0, bad]])
    with pytest.raises(TypeError, match="not an exact rational"):
        RationalMatrix.identity(2).scale(bad)

