"""Evaluation modules: ladder actions, currents, series and imaginary
generators, all against independently computed eigenvalue formulas."""

import json
import re
from pathlib import Path

import pytest
from seriesoracle import with_series
from truncseries import BadConstantTerm, TruncSeries

from rsaffine.cli import MAX_KMAX
from rsaffine.errors import MissingGenerator, NotEigenvector, WindowTooSmall
from rsaffine.field import A, ONE, R, S, ZERO, quantum_int
from rsaffine.matrix import Matrix
from rsaffine.rep_core import (
    AIM_KIND,
    XM_KIND,
    XP_KIND,
    Aim,
    E,
    F,
    GammaHalf,
    GammaPrimeHalf,
    MatrixModule,
    W,
    Wp,
    Wpser,
    Wser,
    Xm,
    Xp,
    all_pass,
    check_chevalley,
    check_drinfeld,
)
from rsaffine.sl2 import (
    build_chevalley_eval,
    build_current_eval,
    build_series_eval,
    current_matrices,
    loop_diagonals,
    series_matrices,
    shift_factor,
)

RHO = R * S**-1
GOLDEN = Path(__file__).parent / "golden" / "module_v2.json"


def build_Vn(n: int) -> MatrixModule:
    """The (n+1)-dimensional ladder module of the finite subalgebra:
    e.v_i = [n+1-i] v_(i-1), f.v_i = [i+1] v_(i+1), diagonal omega actions;
    node 1 of the affine Chevalley module, with its gamma halves."""
    halves = {GammaHalf(1), GammaHalf(-1), GammaPrimeHalf(1), GammaPrimeHalf(-1)}
    chev = build_chevalley_eval(n)
    return MatrixModule(chev.table, {g: m for g, m in chev.assign.items() if g.i == 1 or g in halves})


def evaluation_map_consistency(n: int, use_shift=False, kmax: int = 3):
    """Cross-check the closed current action against the lifted evaluation
    morphism x+(k) -> r^-k s^k a^k w'^-k e, x-(k) -> r^-k s^k a^k f w^k.

    Returns a list of discrepancy descriptions (empty when they agree)."""
    sh = shift_factor(use_shift)
    e, f, w, wp = (build_Vn(n).get(g) for g in (E(1), F(1), W(1), Wp(1)))
    ap = sh * A
    out = []
    for k, (xp, xm) in current_matrices(e, f, *loop_diagonals(n + 1, sh), range(-kmax, kmax + 1)).items():
        scalar = (R**-1 * S * ap) ** k
        via_ev_p = (wp**-k @ e).scale(scalar)
        via_ev_m = (f @ w**k).scale(scalar)
        if via_ev_p != xp:
            out.append(f"x+({k}) mismatch at n={n}")
        if via_ev_m != xm:
            out.append(f"x-({k}) mismatch at n={n}")
    return out


def test_v0_is_trivial():
    m = build_Vn(0)
    assert m.get(E(1)).is_zero() and m.get(F(1)).is_zero()
    assert m.get(W(1)).is_identity() and m.get(Wp(1)).is_identity()


def test_v1_actions():
    m = build_Vn(1)
    assert m.get(E(1)).apply([ZERO, ONE]) == [ONE, ZERO]  # e.v_1 = [1] v_0
    assert m.get(F(1)).apply([ONE, ZERO]) == [ZERO, ONE]  # f.v_0 = [1] v_1
    assert m.get(W(1)).apply([ONE, ZERO]) == [R, ZERO]
    assert m.get(Wp(1)).apply([ONE, ZERO]) == [S, ZERO]


def test_v2_raising_coefficient():
    m = build_Vn(2)
    assert m.get(E(1)).apply([ZERO, ONE, ZERO]) == [R + S, ZERO, ZERO]


@pytest.mark.parametrize("n", range(5))
def test_weight_grading(n):
    m = build_Vn(n)
    for i in range(n + 1):
        v = [ONE if j == i else ZERO for j in range(n + 1)]
        assert m.get(W(1)).apply(v) == [R**n * RHO**-i * x for x in v]
        assert m.get(Wp(1)).apply(v) == [S**n * RHO**i * x for x in v]


# The finite part build_Vn(3) is node 1 of build_chevalley_eval(3), on which
# every Chevalley relation holds at both nodes.
def test_finite_part_relations():
    chev = build_chevalley_eval(3)
    assert build_Vn(3).assign.items() <= chev.assign.items()
    assert all_pass(check_chevalley(chev))


# -- Chevalley evaluation -------------------------------------------------------


def test_node0_omega_swap():
    for n in range(4):
        m = build_chevalley_eval(n)
        v0 = [ONE] + [ZERO] * n
        assert m.get(W(0)).apply(v0) == [S**n] + [ZERO] * n


def test_node0_raising_action():
    m = build_chevalley_eval(1)
    v0 = [ONE, ZERO]
    assert m.get(E(0)).apply(v0) == [ZERO, R**-1 * S * A]


def test_n0_affine_module_trivial():
    m = build_chevalley_eval(0)
    assert m.get(E(0)).is_zero() and m.get(F(0)).is_zero()
    assert all_pass(check_chevalley(m))


def test_e0_annihilates_v0_iff_n0():
    for n in range(4):
        m = build_chevalley_eval(n)
        v0 = [ONE] + [ZERO] * n
        killed = all(x.is_zero() for x in m.get(E(0)).apply(v0))
        assert killed == (n == 0)


# -- currents ---------------------------------------------------------------------


def test_current_k0_is_chevalley_pair():
    mod = build_current_eval(2, kmax=2, lmax=1)
    m = build_Vn(2)
    assert mod.get(Xp(1, 0)) == m.get(E(1))
    assert mod.get(Xm(1, 0)) == m.get(F(1))


def test_current_positive_k_example():
    # x+(1).v_1 = a s^-1 (rs^-1)^-1 [1] v_0 = a r^-1 v_0 at n = 1
    mod = build_current_eval(1, kmax=2, lmax=1)
    assert mod.get(Xp(1, 1)).apply([ZERO, ONE]) == [A * R**-1, ZERO]


def test_current_negative_k_example():
    # x-(-1).v_0 = a^-1 r^-1 (rs^-1) v_1 = a^-1 s^-1 v_1 at n = 1
    mod = build_current_eval(1, kmax=2, lmax=1)
    assert mod.get(Xm(1, -1)).apply([ONE, ZERO]) == [ZERO, A**-1 * S**-1]


@pytest.mark.parametrize("n", range(4))
def test_highest_weight_annihilation(n):
    mod = build_current_eval(n, kmax=3, lmax=1)
    v0 = [ONE] + [ZERO] * n
    for k in range(-mod.kmax, mod.kmax + 1):
        assert all(x.is_zero() for x in mod.get(Xp(1, k)).apply(v0))


@pytest.mark.parametrize("shift", ("rs_inverse", "plain", 1, None))
def test_shift_must_be_a_bool(shift):
    with pytest.raises(ValueError):
        build_chevalley_eval(1, shift)


# a(l) is read off the series to order l, which the module stores to order
# 2 kmax; a larger lmax used to raise MissingGenerator 'Wser(1,3)' from inside
# the series logarithm.
@pytest.mark.parametrize("kmax,lmax", ((1, 3), (2, 5)))
def test_current_module_needs_lmax_at_most_twice_kmax(kmax, lmax):
    with pytest.raises(ValueError, match=re.escape("lmax <= 2*kmax")):
        build_current_eval(1, kmax=kmax, lmax=lmax)
    assert build_current_eval(1, kmax=kmax, lmax=2 * kmax).get(Aim(1, -2 * kmax)).is_diagonal()


# A negative lmax used to raise IndexError, and with_series above its order
# MissingGenerator; lmax 0 builds no a(l) and is accepted.
def test_lmax_must_be_in_zero_to_the_series_order():
    with pytest.raises(ValueError, match=re.escape("need 0 <= lmax <= 2*kmax, got lmax -2 with kmax 1")):
        build_current_eval(1, kmax=1, lmax=-2)
    mod = build_current_eval(1, kmax=2, lmax=0)
    assert not any(g.kind == "Aimag" for g in mod.assign)
    for order, lmax in ((4, -1), (2, 3)):
        want = f"need 0 <= lmax <= order, got lmax {lmax} with order {order}"
        with pytest.raises(ValueError, match=re.escape(want)):
            with_series(mod, order, lmax)
    assert with_series(mod, 4, 0).assign == mod.assign


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("shift", (False, True))
def test_evaluation_morphism_agrees_with_closed_action(n, shift):
    assert evaluation_map_consistency(n, shift, kmax=3) == []


@pytest.mark.parametrize("n", (1, 4, 12))
@pytest.mark.parametrize("shift", (False, True))
def test_evaluation_morphism_covers_the_cli_current_window(n, shift):
    # the CLI materializes currents to |k| <= 2*kmax with kmax <= MAX_KMAX
    assert evaluation_map_consistency(n, shift, kmax=2 * MAX_KMAX) == []


def test_current_build_makes_one_quantum_integer_per_ladder_entry(monkeypatch):
    # every current is its degree-0 matrix times a diagonal power, so the
    # 2n ladder entries are the only quantum integers built; building each
    # x+-(k) entry from its own quantum integer made 456 calls here
    import rsaffine.sl2 as sl2

    calls = 0
    built = sl2.quantum_int

    def counting(*args):
        nonlocal calls
        calls += 1
        return built(*args)

    monkeypatch.setattr(sl2, "quantum_int", counting)
    n = 6
    build_current_eval(n, True, kmax=9, lmax=1)
    assert calls == 2 * n


# The build reads each a(l) entry off the telescoped per-weight form, its
# terms written down from their exponents (sl2 docstring), and every other
# generator by monomial products, so it takes no polynomial gcd.  Dividing
# each weight's series logarithm by r - s made 70 at n = 4 and 118 at n = 12
# at the verify defaults kmax 4, lmax 3, and 638 at the n = 12 corner
# kmax 8, lmax 16.
@pytest.mark.parametrize("n,kmax,lmax", [(n, 4, 3) for n in range(13)] + [(4, 8, 16), (12, 8, 16)])
@pytest.mark.parametrize("shift", (False, True))
def test_current_build_takes_no_gcd(monkeypatch, n, kmax, lmax, shift):
    import rsaffine.field as field

    calls = 0
    pgcd = field.pgcd

    def counting(p, q):
        nonlocal calls
        calls += 1
        return pgcd(p, q)

    monkeypatch.setattr(field, "pgcd", counting)
    build_current_eval(n, shift, kmax=kmax, lmax=lmax)
    assert calls == 0


# a(l) is written down term by term (sl2 docstring), so a build makes as many
# polynomial products at every lmax as with no a(l) at all.  The
# log-derivative recurrence made products of multi-term entries, O(lmax^2)
# per weight: the build at n = 12, kmax 8, lmax 16 made 7,235 pmul calls,
# and makes 1,243 now, as at lmax 0.
@pytest.mark.parametrize("kmax", (1, 4, 8))
@pytest.mark.parametrize("shift", (False, True))
def test_imaginary_generators_take_no_product(monkeypatch, shift, kmax):
    import rsaffine._kernel as kernel

    calls = 0
    pmul = kernel.pmul

    def counting(p, q):
        nonlocal calls
        calls += 1
        return pmul(p, q)

    monkeypatch.setattr(kernel, "pmul", counting)
    for n in range(13):
        counts = set()
        for lmax in range(2 * kmax + 1):
            calls = 0
            build_current_eval(n, shift, kmax=kmax, lmax=lmax)
            counts.add(calls)
        assert len(counts) == 1, (n, counts)


# -- series generators --------------------------------------------------------------


def test_omega_zero_is_grouplike():
    mod = build_current_eval(2, kmax=2, lmax=1)
    assert mod.get(Wser(1, 0)) == mod.get(W(1))
    assert mod.get(Wpser(1, 0)) == mod.get(Wp(1))


def test_omega_negative_index_is_zero():
    mod = build_current_eval(1, kmax=2, lmax=1)
    assert mod.get(Wser(1, -2)).is_zero()


def test_omega_eigenvalue_shifted_module():
    # on the rs^-1-shifted module: w(1).v_0 = a (r-s) s^-1 v_0
    mod = build_current_eval(1, use_shift=True, kmax=2, lmax=1)
    assert mod.get(Wser(1, 1)).apply([ONE, ZERO]) == [A * (R - S) * S**-1, ZERO]


@pytest.mark.parametrize("n", range(4))
def test_hw_eigenvalue_formulas(n):
    # Phi+_k = (r-s)(a r^-1 s^(1-n))^k [n], Phi-_-k = -(r-s)(a^-1 r^(1-n) s^-1)^k [n]
    mod = build_current_eval(n, kmax=3, lmax=1)
    qn = quantum_int(n)
    for k in range(1, 4):
        plus = (R - S) * (A * R**-1 * S ** (1 - n)) ** k * qn
        minus = -(R - S) * (A**-1 * R ** (1 - n) * S**-1) ** k * qn
        assert mod.get(Wser(1, k))[0, 0] == plus
        assert mod.get(Wpser(1, -k))[0, 0] == minus


def test_omega_requires_materialized_currents():
    mod = build_current_eval(1, kmax=2, lmax=1)
    with pytest.raises(WindowTooSmall):
        with_series(mod, 40, 1)


def test_series_matrices_reads_stored_else_derives():
    mod = build_current_eval(1, kmax=2, lmax=2)  # stores w(0..4), w'(0..-4)
    ws, wps = series_matrices(mod, 4)
    assert all(w is mod.get(Wser(1, m)) for m, w in enumerate(ws))
    assert all(w is mod.get(Wpser(1, -m)) for m, w in enumerate(wps))
    bare = MatrixModule(
        mod.table,
        {g: m for g, m in mod.assign.items() if g.kind not in ("Wser", "Wpser", "Aimag")},
        check=False,
    )
    with pytest.raises(MissingGenerator):
        series_matrices(bare, 4)
    assert with_series(bare, 4, 2).assign == mod.assign
    assert with_series(mod, 4, 2).assign == mod.assign


def plain_series(mod, order):
    """w(1..order) and w'(-1..-order) by the definition, with plain
    products: (r-s) [x+(m), x-(0)] and -(r-s) [x+(0), x-(-m)]."""
    rs = R - S
    xp0, xm0 = mod.get(Xp(1, 0)), mod.get(Xm(1, 0))
    ws, wps = [], []
    for m in range(1, order + 1):
        xp, xm = mod.get(Xp(1, m)), mod.get(Xm(1, -m))
        ws.append((xp @ xm0 - xm0 @ xp).scale(rs))
        wps.append((xp0 @ xm - xm @ xp0).scale(-rs))
    return ws, wps


@pytest.mark.parametrize("corrupt", (False, True))
@pytest.mark.parametrize("use_shift", (False, True))
@pytest.mark.parametrize("n", range(5))
def test_with_series_matches_the_plain_commutators(n, use_shift, corrupt):
    # w(m) for m <= lmax scales C(m), the others hoist r - s into x+-(0);
    # both must be the plain scaled commutator.  The corrupted currents, x+(1)
    # on the first path and x+(3), x-(-4) on the second, keep every w
    # diagonal, so with_series still accepts them.
    kmax, lmax = 2, 2
    mod = build_current_eval(n, use_shift, kmax=kmax, lmax=lmax)
    if corrupt:
        for gen, c in ((Xp(1, 1), 1 + R), (Xp(1, 3), 2 + S), (Xm(1, -4), R / (1 + S))):
            mod = mod.with_assign(gen, mod.get(gen).scale(c))
    got = with_series(mod, 2 * kmax, lmax)
    ws, wps = plain_series(mod, 2 * kmax)
    assert [got.get(Wser(1, m)) for m in range(1, 2 * kmax + 1)] == ws
    assert [got.get(Wpser(1, -m)) for m in range(1, 2 * kmax + 1)] == wps
    if corrupt and n:
        assert got.get(Wser(1, 3)) != build_current_eval(n, use_shift, kmax=kmax, lmax=lmax).get(Wser(1, 3))


# The series and imaginary generators read off the ladder (sl2 docstring)
# are those the general commutators of the stored currents give, entry for
# entry, and stored in the same order.
@pytest.mark.parametrize("n", range(13))
@pytest.mark.parametrize("use_shift", (False, True))
def test_build_matches_the_commutator_oracle(n, use_shift):
    windows = [(1, 0), (1, 1), (2, 2), (4, 3)] + [(8, 16)] * (n == 12)
    for kmax, lmax in windows:
        mod = build_current_eval(n, use_shift, kmax=kmax, lmax=lmax)
        oracle = with_series(mod, 2 * kmax, lmax)
        assert list(oracle.assign) == list(mod.assign)
        assert oracle.assign == mod.assign


# build_series_eval stores what build_current_eval stores apart from the
# currents and a(l), entry for entry and in the same order.
@pytest.mark.parametrize("n", range(13))
@pytest.mark.parametrize("use_shift", (False, True))
def test_series_build_is_the_current_build_without_currents(n, use_shift):
    windows = [(1, 0), (2, 2), (4, 3)] + [(8, 16)] * (n == 12)
    for kmax, lmax in windows:
        full = build_current_eval(n, use_shift, kmax=kmax, lmax=lmax)
        part = {g: m for g, m in full.assign.items() if g.kind not in (XP_KIND, XM_KIND, AIM_KIND)}
        series = build_series_eval(n, use_shift, 2 * kmax)
        assert list(series.assign) == list(part)
        assert series.assign == part


def test_series_build_bounds():
    assert list(build_series_eval(0, False, 0).assign)[-2:] == [Wser(1, 0), Wpser(1, 0)]
    for n, order in ((-1, 4), (2, -1)):
        with pytest.raises(ValueError):
            build_series_eval(n, False, order)


# Each group-like is diagonal with monomial entries, so its inverse is taken
# entry by entry, once, and shared by both nodes; Matrix.inverse, a reduced
# echelon form of [w | I], made 2 pmul calls per entry.
def test_chevalley_build_inverts_each_group_like_once(monkeypatch):
    calls = []
    inverse = Matrix.inverse
    monkeypatch.setattr(Matrix, "inverse", lambda m: calls.append(m) or inverse(m))
    mod = build_chevalley_eval(3, True)
    build_current_eval(3, True, kmax=1, lmax=2)
    build_series_eval(3, True, 2)
    assert calls == []
    assert mod.get(W(1, -1)) is mod.get(Wp(0, -1))
    assert mod.get(Wp(1, -1)) is mod.get(W(0, -1))
    assert mod.get(W(1)) @ mod.get(W(1, -1)) == Matrix.identity(4)
    assert mod.get(Wp(1)) @ mod.get(Wp(1, -1)) == Matrix.identity(4)


@pytest.mark.parametrize("ks", (range(-5, 6), [3, -2, 0, 5], [-1], [], range(2, 4)))
@pytest.mark.parametrize("use_shift", (False, True))
@pytest.mark.parametrize("n", range(5))
def test_current_matrices_match_the_powers(n, use_shift, ks):
    # the running products against x+(k) = e Lambda^k, x-(k) = f M^k per k,
    # for any ks, in the order given
    sh = shift_factor(use_shift)
    vn = build_Vn(n)
    e, f = vn.get(E(1)), vn.get(F(1))
    d, ap = n + 1, sh * A
    lam = [ap * S ** (1 - d) * RHO**-i for i in range(d)]
    mu = [ap * R ** (d - 1) * RHO ** -(i + 1) for i in range(d)]
    got = current_matrices(e, f, lam, mu, ks)
    assert list(got) == list(ks)
    for k, (xp, xm) in got.items():
        assert xp == e.scale_columns([x**k for x in lam])
        assert xm == f.scale_columns([x**k for x in mu])


def test_with_series_refuses_a_non_diagonal_series_generator():
    # x+(2) replaced by e^2 makes w(2) = (r-s)[e^2, f] lower a weight; lmax 1
    # reads only w(0), w(1), so the refusal must cover every m <= order
    mod = build_current_eval(2, kmax=1, lmax=1)
    bad = mod.with_assign(Xp(1, 2), mod.get(Xp(1, 0)) @ mod.get(Xp(1, 0)))
    with pytest.raises(NotEigenvector, match="m=2"):
        with_series(bad, 2, 1)


@pytest.mark.parametrize("gen", (W(1), Wp(1)))
def test_with_series_refuses_a_vanishing_grouplike_eigenvalue(gen):
    # a(l) divides by w(0) and w'(0) entry by entry; lmax 0 divides by
    # nothing and still refuses
    mod = build_current_eval(2, kmax=1, lmax=1)
    bad = mod.with_assign(gen, Matrix.diagonal([ONE, ZERO, ONE]))
    for lmax in (0, 2):
        with pytest.raises(BadConstantTerm, match="group-like eigenvalue vanished"):
            with_series(bad, 2, lmax)


# -- imaginary generators --------------------------------------------------------------


def test_trivial_module_has_zero_imaginaries():
    mod = build_current_eval(0, kmax=2, lmax=3)
    assert all(mod.get(Aim(1, l)).is_zero() for l in (-3, -2, -1, 1, 2, 3))


def test_a1_eigenvalue_from_series_oracle():
    # independent oracle: a(1) = w(1) w(0)^-1 / (r-s) at order 1 of the log
    mod = build_current_eval(1, use_shift=True, kmax=2, lmax=2)
    oracle = mod.get(Wser(1, 1)) @ mod.get(Wser(1, 0)).inverse()
    oracle = oracle.scale((R - S).inv())
    a1 = mod.get(Aim(1, 1))
    assert a1 == oracle
    assert a1.apply([ONE, ZERO]) == [A * R**-1 * S**-1, ZERO]


def test_imaginaries_commute():
    mod = build_current_eval(2, kmax=2, lmax=2)
    a1 = mod.get(Aim(1, 1))
    am1 = mod.get(Aim(1, -1))
    assert (a1 @ am1 - am1 @ a1).is_zero()


@pytest.mark.parametrize("n", range(5))
def test_series_exponential_roundtrip(n):
    # rebuilding both series from the stored imaginaries reproduces them:
    # w(m) from w(0) exp((r-s) sum a(l) z^l), w'(-m) from
    # w'(0) exp(-(r-s) sum a(-l) y^l), with the exponential as the oracle
    order = 4
    for shift in (False, True):
        mod = build_current_eval(n, shift, kmax=2, lmax=order)
        for ser, sign in ((Wser, 1), (Wpser, -1)):
            ws = [mod.get(ser(1, sign * m)) for m in range(order + 1)]
            als = [mod.get(Aim(1, sign * l)) for l in range(1, order + 1)]
            for i in range(n + 1):
                log_series = TruncSeries(order, [ZERO] + [sign * (R - S) * m[i, i] for m in als])
                rebuilt = log_series.exp() * ws[0][i, i]
                assert rebuilt == TruncSeries(order, [m[i, i] for m in ws])


@pytest.mark.parametrize("n", range(4))
def test_ladder_identity(n):
    # [a(l), x+(k)] = theta_l x+(l+k) with theta_l = (rho^l - rho^-l)/(l(r-s))
    mod = build_current_eval(n, kmax=3, lmax=2)
    for l in (1, 2):
        th = (RHO**l - RHO**-l) / ((R - S) * l)
        al = mod.get(Aim(1, l))
        for k in range(-2, 3):
            xp = mod.get(Xp(1, k))
            lhs = al @ xp - xp @ al
            assert lhs == mod.get(Xp(1, l + k)).scale(th)


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("shift", (False, True))
def test_full_drinfeld_suite(n, shift):
    mod = build_current_eval(n, shift, kmax=3, lmax=3)
    assert all_pass(check_drinfeld(mod, kmax=3, lmax=3))


def test_module_golden_file():
    mod = build_current_eval(2, kmax=1, lmax=1)
    got = mod.to_json()
    golden = json.loads(GOLDEN.read_text())
    assert got == golden
