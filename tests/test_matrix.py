"""Sparse Matrix against a plain list-of-lists reference written here.

The reference does every operation entry by entry over dense rows, zeros
included, with no shortcut; the sparse Matrix must give equal values,
dense views and hashes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mutations import apply_mutation

from rsaffine.errors import DivisionByZero
from rsaffine.field import A, ONE, R, S, ZERO, rf
from rsaffine.matrix import Matrix, commutator, echelon_insert
from rsaffine.rep_core import Aim, W, Wp, Wpser, Wser, Xm, Xp, _render_matrix, check_drinfeld
from rsaffine.sl2 import build_chevalley_eval, build_current_eval

# -- the dense reference ---------------------------------------------------------


def ref_matmul(a, b):
    cols = range(len(b[0]))
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in cols] for i in range(len(a))]


def ref_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_scale(a, c):
    return [[x * c for x in row] for row in a]


def ref_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def ref_apply(a, vec):
    return [sum((x * v for x, v in zip(row, vec)), ZERO) for row in a]


def ref_inverse(a):
    n = len(a)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        pc = aug[col][col].inv()
        aug[col] = [x * pc for x in aug[col]]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def ref_rref(vectors):
    rows, pivots = [], []
    for vec in vectors:
        v = list(vec)
        for p, row in zip(pivots, rows):
            f = v[p]
            v = [x - f * y for x, y in zip(v, row)]
        piv = next((j for j, x in enumerate(v) if not x.is_zero()), None)
        if piv is None:
            continue
        inv = v[piv].inv()
        v = [x * inv for x in v]
        rows = [[x - row[piv] * y for x, y in zip(row, v)] for row in rows]
        idx = next((k for k, p in enumerate(pivots) if p > piv), len(pivots))
        pivots.insert(idx, piv)
        rows.insert(idx, v)
    return pivots, rows


# -- strategies ---------------------------------------------------------------------

# zero is most of the pool: generator matrices are about 90% zeros
POOL = [ZERO] * 8 + [ONE, -ONE, rf(2), ONE / 2, R, S, R + S, R * S**-1, A, (R + 1) / (S + 2), ONE / (R - S)]
entries = st.sampled_from(POOL)


@st.composite
def dense(draw, n=None, m=None):
    n = draw(st.integers(1, 4)) if n is None else n
    m = draw(st.integers(1, 4)) if m is None else m
    rows = [[draw(entries) for _ in range(m)] for _ in range(n)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [ZERO] * m
    return rows


@st.composite
def dense_pair(draw, same_shape):
    a = draw(dense())
    if same_shape:
        return a, draw(dense(len(a), len(a[0])))
    return a, draw(dense(len(a[0])))


def as_tuples(rows):
    return tuple(tuple(row) for row in rows)


# -- differential tests ----------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(dense())
def test_rows_round_trip_and_indexing(rows):
    m = Matrix(rows)
    assert (m.n, m.m) == (len(rows), len(rows[0]))
    assert m.rows == as_tuples(rows)
    assert Matrix(m.rows) == m
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            assert m[i, j] == x
    assert m.is_zero() == all(x.is_zero() for row in rows for x in row)


@settings(max_examples=80, deadline=None)
@given(dense_pair(same_shape=True), entries)
def test_add_sub_scale(pair, c):
    a, b = pair
    ma, mb = Matrix(a), Matrix(b)
    assert (ma + mb).rows == as_tuples(ref_add(a, b))
    assert (ma - mb).rows == as_tuples(ref_sub(a, b))
    assert (ma - ma).is_zero()
    assert (-ma).rows == as_tuples(ref_scale(a, -ONE))
    assert ma.scale(c).rows == as_tuples(ref_scale(a, c))
    assert ma.scale(0) == Matrix.zeros(ma.n, ma.m)


@settings(max_examples=80, deadline=None)
@given(dense_pair(same_shape=False), st.data())
def test_matmul_apply_kron(pair, data):
    a, b = pair
    ma, mb = Matrix(a), Matrix(b)
    assert (ma @ mb).rows == as_tuples(ref_matmul(a, b))
    vec = data.draw(st.lists(entries, min_size=len(b[0]), max_size=len(b[0])))
    assert mb.apply(vec) == ref_apply(b, vec)
    assert ma.kron(mb).rows == as_tuples(ref_kron(a, b))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: dense(n, n)))
def test_inverse(rows):
    expected = ref_inverse(rows)
    m = Matrix(rows)
    if expected is None:
        with pytest.raises(DivisionByZero):
            m.inverse()
        return
    inv = m.inverse()
    assert inv.rows == as_tuples(expected)
    assert m @ inv == Matrix.identity(m.n)


@settings(max_examples=80, deadline=None)
@given(dense())
def test_rref(rows):
    pivots, basis = [], []
    for row in rows:
        echelon_insert(pivots, basis, {j: x for j, x in enumerate(row) if x})
    width = len(rows[0])
    assert (pivots, [[r.get(j, ZERO) for j in range(width)] for r in basis]) == ref_rref(rows)


@settings(max_examples=60, deadline=None)
@given(dense())
def test_map_drops_zero_images(rows):
    def fn(x):
        return x * x - x  # sends 1 (and 0) to 0

    assert Matrix(rows).map(fn).rows == as_tuples([[fn(x) for x in row] for row in rows])
    assert Matrix(rows).map(lambda x: x.substitute(a=R)).rows == as_tuples(
        [[x.substitute(a=R) for x in row] for row in rows]
    )


@settings(max_examples=80, deadline=None)
@given(dense_pair(same_shape=True))
def test_eq_and_hash(pair):
    a, b = pair
    ma, mb = Matrix(a), Matrix(b)
    assert (ma == mb) == (as_tuples(a) == as_tuples(b))
    # the same value built along other paths: equal, with equal hashes
    others = (ma + Matrix.zeros(ma.n, ma.m), Matrix.identity(ma.n) @ ma, (ma + mb) - mb, ma.map(lambda x: x))
    for other in others:
        assert other == ma
        assert hash(other) == hash(ma)


def test_shapes_and_special_forms():
    assert Matrix.zeros(2, 3).rows == as_tuples([[ZERO] * 3] * 2)
    assert Matrix.identity(2).rows == as_tuples([[ONE, ZERO], [ZERO, ONE]])
    assert Matrix.diagonal([R, ZERO]).rows == as_tuples([[R, ZERO], [ZERO, ZERO]])
    assert Matrix.zeros(2, 3) != Matrix.zeros(3, 2)
    assert Matrix.zeros(1, 2) != Matrix.zeros(1, 3)
    with pytest.raises(ValueError):
        Matrix.zeros(2) @ Matrix.zeros(3)
    with pytest.raises(ValueError):
        Matrix.zeros(2) + Matrix.zeros(3)
    with pytest.raises(IndexError):
        Matrix.zeros(2)[0, 2]


# -- D5/D7 verdicts and reports equal those of a plain `lhs != M.scale(c)` -------------
# D7 scales by 1/(r-s) and goes through the cross-multiplied `verdict` with c; D5 scales
# by theta_l, a Laurent polynomial, and uses the plain comparison itself.


def plain_d5_d7_failures(mod, kmax, lmax):
    """The D5/D7 failure lists of check_drinfeld, from `lhs != M.scale(c)`."""
    i = 1
    rho = mod.table.entry(i, i)
    rs = (R - S).inv()
    kc = mod.get(W(i)) @ mod.get(Wp(i))

    def theta(l):
        return (rho**l - rho**-l) * rs / rf(l)

    instances = {"D5_1": [], "D5_2": [], "D7": []}
    for l in range(1, lmax + 1):
        assert theta(l).is_laurent_polynomial()
        for k in range(-kmax, kmax + 1):
            a = mod.get(Aim(i, l))
            if abs(l + k) <= kmax + 1:
                rhs = mod.get(Xp(i, l + k)).scale(theta(l))
                instances["D5_1"].append((("x+", l, k), commutator(a, mod.get(Xp(i, k))), rhs))
                rhs = (kc**-l @ mod.get(Xm(i, l + k))).scale(-theta(l))
                instances["D5_1"].append((("x-", l, k), commutator(a, mod.get(Xm(i, k))), rhs))
            a = mod.get(Aim(i, -l))
            if abs(k - l) <= kmax + 1:
                rhs = (kc**-l @ mod.get(Xp(i, k - l))).scale(theta(l))
                instances["D5_2"].append((("x+", -l, k), commutator(a, mod.get(Xp(i, k))), rhs))
                rhs = mod.get(Xm(i, k - l)).scale(-theta(l))
                instances["D5_2"].append((("x-", -l, k), commutator(a, mod.get(Xm(i, k))), rhs))
    for k in range(-kmax, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            m = k + k2
            rhs = (kc**k2 @ mod.get(Wser(i, m)) - kc**-k @ mod.get(Wpser(i, m))).scale(rs)
            instances["D7"].append(((k, k2), commutator(mod.get(Xp(i, k)), mod.get(Xm(i, k2))), rhs))
    return {
        rid: [
            {"instance": str(inst), "lhs": _render_matrix(lhs), "rhs": _render_matrix(rhs)}
            for inst, lhs, rhs in found
            if lhs != rhs
        ]
        for rid, found in instances.items()
    }


@pytest.mark.parametrize("mutate", (False, True))
def test_scaled_checks_match_the_plain_comparison(mutate):
    n, kmax, lmax = 2, 2, 2
    mod = build_current_eval(n, kmax=kmax, lmax=lmax)
    if mutate:
        _, mod = apply_mutation(build_chevalley_eval(n), mod, "xminus-scale")
    reports = {r.relation_id: r for r in check_drinfeld(mod, kmax, lmax)}
    expected = plain_d5_d7_failures(mod, kmax, lmax)
    for rid, failures in expected.items():
        assert reports[rid].failures == failures
        assert bool(failures) == mutate


# -- commutator: the diagonal shortcut and the one-pass sum against the two full products

# repeated values make d_i == d_j, so the entry (i, j) of [D, X] cancels
DIAG_POOL = [ZERO, ONE, ONE, R, R, (R + 1) / (S + 2), (R + 1) / (S + 2), A / (R - S)]


def square(n, diagonal):
    if diagonal:
        return st.lists(st.sampled_from(DIAG_POOL), min_size=n, max_size=n).map(Matrix.diagonal)
    return dense(n, n).map(Matrix).filter(lambda m: not m.is_diagonal())


def stores_no_zero(m):
    return all(x for row in m._rows for x in row.values())


@pytest.mark.parametrize("diag_a, diag_b", [(True, True), (True, False), (False, True), (False, False)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_commutator_matches_the_full_products(diag_a, diag_b, data):
    # two non-diagonal factors take the one-pass sum of both products
    n = data.draw(st.integers(1, 4))
    a, b = data.draw(square(n, diag_a)), data.draw(square(n, diag_b))
    got = commutator(a, b)
    assert got == a @ b - (b @ a)
    assert stores_no_zero(got)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_pass_commutator_drops_what_cancels(data):
    # a commutes with every polynomial in a, so each entry that the two
    # products reach cancels; a part of b that is such a polynomial
    # cancels entry by entry against the rest of the commutator
    n = data.draw(st.integers(2, 4))
    a, b = data.draw(square(n, False)), data.draw(square(n, False))
    c = data.draw(entries)
    poly = a @ a + a.scale(c)
    for x in (a, poly):
        got = commutator(a, x)
        assert got.is_zero() and not any(got._rows)
    got = commutator(a, b + poly)
    assert got == commutator(a, b) == a @ b - (b @ a)
    assert stores_no_zero(got)


@settings(max_examples=80, deadline=None)
@given(dense_pair(same_shape=True), st.data())
def test_difference_matches_the_sum_with_the_negation(pair, data):
    # b copies some of a's entries, so those cancel and must not be stored
    a, b = pair
    keep = [[data.draw(st.booleans()) for _ in row] for row in a]
    b = [[x if k else y for x, y, k in zip(ra, rb, rk)] for ra, rb, rk in zip(a, b, keep)]
    ma, mb = Matrix(a), Matrix(b)
    got = ma - mb
    assert got == ma + (-mb)
    assert got.rows == as_tuples(ref_sub(a, b))
    assert stores_no_zero(got)
    assert not any((ma - ma)._rows)
    with pytest.raises(ValueError):
        ma - Matrix.zeros(ma.n + 1, ma.m)


def test_commutator_with_a_diagonal_factor_stores_no_cancelled_entry(monkeypatch):
    import rsaffine._kernel as kernel

    p = (R + 1) / (S + 2)
    d = Matrix.diagonal([p, p, ZERO, A / (R - S)])
    x = Matrix([[ZERO, R, ONE / (R - S), ONE], [S, ZERO, ZERO, ZERO], [ONE, ZERO, p, R], [ZERO, A, ONE, S]])
    for lhs, rhs in ((d, x), (x, d)):
        got = commutator(lhs, rhs)
        assert got == lhs @ rhs - rhs @ lhs
        assert 1 not in got._rows[0]  # d_0 == d_1: (0, 1) cancels
        assert 0 not in got._rows[1]
        assert got._rows[2][0] == (-p if lhs is d else p)  # the zero d_2 against d_0
    calls = 0
    pmul = kernel.pmul

    def counting(f, g):
        nonlocal calls
        calls += 1
        return pmul(f, g)

    monkeypatch.setattr(kernel, "pmul", counting)
    assert commutator(d, Matrix.diagonal([R, p, S, A])) == Matrix.zeros(4)
    assert calls == 0
    with pytest.raises(ValueError):
        commutator(d, Matrix.zeros(3))
