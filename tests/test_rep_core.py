"""Relation engine: exact verification, instance accounting, failure teeth."""

import pytest

from rsaffine.cartan import AffineType, build_pairing
from rsaffine.errors import MissingGenerator, UnsupportedRank, WindowTooSmall
from rsaffine.field import ONE, R, S, ZERO, quantum_int, rf
from rsaffine.matrix import Matrix
from rsaffine.rep_core import (
    Aim,
    E,
    F,
    GammaHalf,
    GammaPrimeHalf,
    Gen,
    MatrixModule,
    W,
    Wp,
    Wser,
    Xm,
    Xp,
    _render_matrix,
    all_pass,
    apply_word,
    check_chevalley,
    check_drinfeld,
    chevalley_instance_counts,
    drinfeld_instance_counts,
)
from rsaffine.sl2 import build_chevalley_eval, build_current_eval, build_Vn

A1 = build_pairing(AffineType("A", 1))


def _trivial_module():
    one = Matrix.identity(1)
    zero = Matrix.zeros(1)
    assign = {}
    for i in (0, 1):
        assign[E(i)] = zero
        assign[F(i)] = zero
        for e in (1, -1):
            assign[W(i, e)] = one
            assign[Wp(i, e)] = one
    for e in (1, -1):
        assign[GammaHalf(e)] = one
        assign[GammaPrimeHalf(e)] = one
    return MatrixModule(A1, assign)


def test_trivial_module_passes():
    assert all_pass(check_chevalley(_trivial_module()))


@pytest.mark.parametrize("n", range(5))
def test_chevalley_eval_passes(n):
    assert all_pass(check_chevalley(build_chevalley_eval(n)))


def test_scaled_generator_breaks_r3():
    mod = build_chevalley_eval(2)
    bad = mod.with_assign(E(1), mod.get(E(1)).scale(2))
    reports = {r.relation_id: r for r in check_chevalley(bad)}
    assert not reports["R3"].passed
    assert any(f["instance"] == "(1, 1)" for f in reports["R3"].failures)


def test_zeroed_current_breaks_ladder():
    curr = build_current_eval(1, kmax=2, lmax=2)
    bad = curr.with_assign(Xp(1, 1), Matrix.zeros(2))
    reports = {r.relation_id: r for r in check_drinfeld(bad, 2, 2)}
    assert not reports["D5_1"].passed
    assert not reports["D7"].passed


def test_instance_counts_match_prediction():
    mod = build_chevalley_eval(1)
    got = {r.relation_id: r.instances_checked for r in check_chevalley(mod)}
    assert got == chevalley_instance_counts(A1)

    curr = build_current_eval(1, kmax=3, lmax=2)
    got = {r.relation_id: r.instances_checked for r in check_drinfeld(curr, 3, 2)}
    assert got == drinfeld_instance_counts(3, 2)


def test_missing_generator():
    mod = _trivial_module()
    stripped = dict(mod.assign)
    del stripped[E(0)]
    broken = MatrixModule(A1, stripped)
    with pytest.raises(MissingGenerator):
        check_chevalley(broken)


def test_window_too_small():
    curr = build_current_eval(1, kmax=2, lmax=2)
    with pytest.raises(WindowTooSmall):
        check_drinfeld(curr, 8, 2)


def test_drinfeld_needs_rank_one():
    from rsaffine.cartan import parse_type

    other = build_pairing(parse_type("A2"))
    mod = MatrixModule(other, {W(1): Matrix.identity(2)})
    with pytest.raises(UnsupportedRank):
        check_drinfeld(mod, 2, 2)


def test_series_symbols_out_of_range_are_zero():
    curr = build_current_eval(1, kmax=2, lmax=2)
    assert curr.get(Wser(1, -3)).is_zero()
    assert curr.get(Gen("Wpser", 1, 2)).is_zero()


def test_imaginary_symbol_needs_nonzero_index():
    with pytest.raises(ValueError):
        Aim(1, 0)


def test_grouplike_inverse_enforced_at_construction():
    bad = dict(_trivial_module().assign)
    bad[W(1, -1)] = Matrix([[ZERO + 2]])
    with pytest.raises(ValueError):
        MatrixModule(A1, bad)


# -- D2/D3/D5/D6 reports against a naive reference ------------------------------------
# The reference takes both full products of every commutator and builds both
# sides of every D6 instance, so it shares neither the diagonal commutator
# nor the D6 anti-diagonals with check_drinfeld.


def naive_reports(mod, kmax, lmax):
    """(instances_checked, failures) of D2, D3, D5_1, D5_2 and D6, naively."""
    i = 1
    rho = mod.table.entry(i, i)
    rs = (R - S).inv()
    zero = Matrix.zeros(mod.dim)
    w, winv, wp, wpinv = mod.get(W(i)), mod.get(W(i, -1)), mod.get(Wp(i)), mod.get(Wp(i, -1))
    kc = w @ wp

    def comm(a, b):
        return a @ b - b @ a

    def theta(l):
        return (rho**l - rho**-l) * rs / rf(l)

    def al(l):
        return mod.get(Aim(i, l))

    def xp(k):
        return mod.get(Xp(i, k))

    def xm(k):
        return mod.get(Xm(i, k))

    ells = [l for l in range(-lmax, lmax + 1) if l != 0]
    found = {rid: [] for rid in ("D2", "D3", "D5_1", "D5_2", "D6")}
    for l1 in ells:
        for l2 in ells:
            found["D2"].append(((l1, l2), comm(al(l1), al(l2)), zero))
    for l in ells:
        for tag, m in (("w", w), ("winv", winv), ("wp", wp), ("wpinv", wpinv)):
            found["D3"].append(((l, tag), comm(al(l), m), zero))
    for l in range(1, lmax + 1):
        th = theta(l)
        for k in range(-kmax, kmax + 1):
            if abs(l + k) <= kmax + 1:
                found["D5_1"].append((("x+", l, k), comm(al(l), xp(k)), xp(l + k).scale(th)))
                found["D5_1"].append((("x-", l, k), comm(al(l), xm(k)), (kc**-l @ xm(l + k)).scale(-th)))
        for k in range(-kmax, kmax + 1):
            if abs(k - l) <= kmax + 1:
                found["D5_2"].append((("x+", -l, k), comm(al(-l), xp(k)), (kc**-l @ xp(k - l)).scale(th)))
                found["D5_2"].append((("x-", -l, k), comm(al(-l), xm(k)), xm(k - l).scale(-th)))
    for sign, X, rr in ((1, xp, rho), (-1, xm, rho.inv())):
        for k in range(-(kmax + 1), kmax + 1):
            for k2 in range(-(kmax + 1), kmax + 1):
                lhs = X(k + 1) @ X(k2) - (X(k2) @ X(k + 1)).scale(rr)
                rhs = -(X(k2 + 1) @ X(k) - (X(k) @ X(k2 + 1)).scale(rr))
                found["D6"].append(((sign, k, k2), lhs, rhs))
    return {
        rid: (
            len(instances),
            [
                {"instance": str(inst), "lhs": _render_matrix(lhs), "rhs": _render_matrix(rhs)}
                for inst, lhs, rhs in instances
                if lhs != rhs
            ],
        )
        for rid, instances in found.items()
    }


MUTATIONS = {
    "none": (lambda mod: mod, set()),
    "a(1) + x+(0)": (
        lambda mod: mod.with_assign(Aim(1, 1), mod.get(Aim(1, 1)) + mod.get(Xp(1, 0))),
        {"D2", "D3", "D5_1"},
    ),
    "x+(1) = 0": (lambda mod: mod.with_assign(Xp(1, 1), Matrix.zeros(mod.dim)), {"D5_1", "D5_2", "D6"}),
    "x-(0) * rs": (lambda mod: mod.with_assign(Xm(1, 0), mod.get(Xm(1, 0)).scale(R * S)), {"D5_1", "D5_2", "D6"}),
}


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_failure_reports_match_the_naive_reference(mutation):
    kmax, lmax = 2, 2
    mutate, failing = MUTATIONS[mutation]
    mod = mutate(build_current_eval(2, kmax=kmax, lmax=lmax))
    reports = {r.relation_id: r for r in check_drinfeld(mod, kmax, lmax)}
    expected = naive_reports(mod, kmax, lmax)
    for rid, (count, failures) in expected.items():
        assert reports[rid].instances_checked == count
        assert reports[rid].failures == failures
    assert {rid for rid, (_, failures) in expected.items() if failures} == failing


# Mutations aimed at D6, with a check on its failing instances (sign, k, k2):
# x-(1) scaled breaks only the x- sign, x+(kmax+1) is the window edge that
# only k = kmax reads, and adding 1 to a current breaks k = k2 instances,
# which a scaled current cannot (it scales both of their sides alike).
D6_MUTATIONS = {
    "x-(1) * 2": (
        lambda mod, kmax: mod.with_assign(Xm(1, 1), mod.get(Xm(1, 1)).scale(2)),
        lambda fails, kmax: {sign for sign, _, _ in fails} == {-1},
    ),
    "x+(kmax+1) + 1": (
        lambda mod, kmax: mod.with_assign(Xp(1, kmax + 1), mod.get(Xp(1, kmax + 1)) + Matrix.identity(mod.dim)),
        lambda fails, kmax: (1, kmax, kmax) in fails and all(sign == 1 and kmax in (k, k2) for sign, k, k2 in fails),
    ),
    "x+(0) + 1": (
        lambda mod, kmax: mod.with_assign(Xp(1, 0), mod.get(Xp(1, 0)) + Matrix.identity(mod.dim)),
        lambda fails, kmax: (1, 0, 0) in fails and (1, -1, -1) in fails,
    ),
}


@pytest.mark.parametrize("mutation", D6_MUTATIONS)
@pytest.mark.parametrize("shift", (False, True))
@pytest.mark.parametrize("kmax", (1, 3))
@pytest.mark.parametrize("n", (2, 3))
def test_d6_failures_match_the_naive_reference(n, kmax, shift, mutation):
    mutate, expect = D6_MUTATIONS[mutation]
    mod = mutate(build_current_eval(n, shift, kmax=kmax, lmax=1), kmax)
    (report,) = [r for r in check_drinfeld(mod, kmax, 1) if r.relation_id == "D6"]
    count, failures = naive_reports(mod, kmax, 1)["D6"]
    assert report.instances_checked == count == drinfeld_instance_counts(kmax, 1)["D6"]
    assert report.failures == failures
    assert expect({inst for inst, _, _ in report.mismatches}, kmax)


# Matrix products made by D6 on one module at kmax = K: each X(a)X(b) of an
# anti-diagonal a + b = t + 1 once, that is 2(2K+2)^2 - (2K+1)^2 per sign.
# Building the two sides of every unordered (k, k2) pair made 4(2K+2)^2.
@pytest.mark.parametrize("kmax,products", ((1, 46), (2, 94), (4, 238), (8, 718)))
def test_d6_builds_each_current_product_once(monkeypatch, kmax, products):
    import rsaffine.rep_core as rep_core

    calls = 0
    spans = {}
    matmul = Matrix.__matmul__

    def counting(a, b):
        nonlocal calls
        calls += 1
        return matmul(a, b)

    class Spans(rep_core._Checker):
        def __init__(self, relation_id):
            super().__init__(relation_id)
            self.start = calls

        def done(self):
            spans[self.report.relation_id] = calls - self.start
            return super().done()

    mod = build_current_eval(1, kmax=kmax, lmax=1)
    monkeypatch.setattr(Matrix, "__matmul__", counting)
    monkeypatch.setattr(rep_core, "_Checker", Spans)
    assert all_pass(check_drinfeld(mod, kmax, 1))
    assert spans["D6"] == products == 2 * (2 * (2 * kmax + 2) ** 2 - (2 * kmax + 1) ** 2)


# -- apply_word ----------------------------------------------------------------


def test_apply_word_empty_is_identity():
    mod = build_Vn(2)
    v = [ONE, ZERO, ZERO]
    assert apply_word(mod, [], v) == v


def test_apply_word_lowering():
    mod = build_Vn(2)
    v0 = [ONE, ZERO, ZERO]
    assert apply_word(mod, [F(1)], v0) == [ZERO, ONE, ZERO]


@pytest.mark.parametrize("n", range(1, 5))
def test_commutator_word_gives_quantum_int(n):
    mod = build_Vn(n)
    v0 = [ONE] + [ZERO] * n
    ef = apply_word(mod, [E(1), F(1)], v0)
    fe = apply_word(mod, [F(1), E(1)], v0)
    diff = [x - y for x, y in zip(ef, fe)]
    assert diff == [quantum_int(n)] + [ZERO] * n


def test_apply_word_composes():
    mod = build_Vn(3)
    v = [ONE, ZERO, R, ZERO]
    w1 = [E(1), F(1)]
    w2 = [F(1), W(1)]
    assert apply_word(mod, w1 + w2, v) == apply_word(mod, w1, apply_word(mod, w2, v))
