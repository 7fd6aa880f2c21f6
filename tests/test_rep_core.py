"""Relation engine: exact verification, instance accounting, failure teeth."""

import pytest

from rsaffine.cartan import AffineType, build_pairing
from rsaffine.errors import MissingGenerator, UnsupportedRank, WindowTooSmall
from rsaffine.field import ONE, R, S, ZERO, quantum_int
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
