"""Relation engine: exact verification, instance accounting, failure teeth."""

import re
from fractions import Fraction

import pytest
from mutations import MUTATIONS as CORRUPTIONS
from mutations import apply_mutation
from plainchevalley import plain_reports
from seriesoracle import with_series
from test_sl2 import build_Vn
from twists import twist_gamma1, twist_gamma2

from rsaffine.cartan import AffineType, build_pairing
from rsaffine.errors import MissingGenerator, UnsupportedRank, WindowTooSmall
from rsaffine.field import A, B, ONE, R, S, ZERO, RatFunc, parse, quantum_int, rf
from rsaffine.matrix import Matrix
from rsaffine.rep_core import (
    WP_KIND,
    W_KIND,
    Aim,
    E,
    F,
    GammaHalf,
    GammaPrimeHalf,
    Gen,
    MatrixModule,
    W,
    Wp,
    Wpser,
    Wser,
    Xm,
    Xp,
    _render_matrix,
    all_pass,
    apply_word,
    check_chevalley,
    anti_diagonal_form,
    check_drinfeld,
    chevalley_instance_counts,
    commutation_scalar,
    current_form,
    drinfeld_instance_counts,
)
from rsaffine import rep_core
from rsaffine.hopf import tensor, twist_sigma
from rsaffine.sl2 import build_chevalley_eval, build_current_eval, build_series_eval
from rsaffine.specialize import parse_spec_map, specialize_module, substitute_module

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


# A module that stores no currents is refused as such; the message used to
# name the bound |k| <= -1, which no module can have.
@pytest.mark.parametrize("build", (lambda: build_series_eval(2, False, 8), lambda: build_chevalley_eval(2)))
def test_drinfeld_refuses_a_module_without_currents(build):
    with pytest.raises(WindowTooSmall, match="^the module stores no currents$"):
        check_drinfeld(build(), 1, 1)


# A window whose currents are stored but whose series (to order 2 kmax) or
# a(l) (to |l| <= lmax) are not is refused before any relation runs; it used
# to run D1-D6 and then raise MissingGenerator, or raise it from D2.
@pytest.mark.parametrize("kmax,lmax,missing", ((3, 2, "Wser(1,5)"), (2, 3, "Aimag(1,-3)")))
def test_window_needs_the_series_and_imaginary_generators(kmax, lmax, missing):
    curr = build_current_eval(1, kmax=2, lmax=2)
    with pytest.raises(WindowTooSmall, match=re.escape(missing)):
        check_drinfeld(curr, kmax, lmax)


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


# A pair off the weight view's inverse set is multiplied out: a non-diagonal
# inverse pair is accepted, and a non-diagonal broken one refused like a
# diagonal one.  Gamma halves that are not the identity are multiplied out
# too, and gh = 2 I, gph = I is not at level zero.
def test_non_diagonal_pairs_and_gamma_halves_at_construction():
    chev = build_chevalley_eval(2)
    twisted = _conjugated(chev, W(0))
    assert not twisted.get(W(0)).is_diagonal() and W(0) not in twisted.weights.inverse
    assert MatrixModule(chev.table, twisted.assign).dim == chev.dim
    broken = twisted.with_assign(Wp(1, -1), chev.get(Wp(1, -1)) + _unit(chev.dim, 0, 1))
    with pytest.raises(ValueError, match=re.escape("Wp(1) inverse pair broken")):
        MatrixModule(chev.table, broken.assign)
    ident = Matrix.identity(chev.dim)
    halves = {GammaHalf(): ident.scale(2), GammaHalf(-1): ident.scale(Fraction(1, 2)), GammaPrimeHalf(): ident}
    with pytest.raises(ValueError, match="gamma gamma' must act as the identity"):
        MatrixModule(chev.table, {**chev.assign, **halves})


# -- D1-D7 reports against a naive reference ------------------------------------------
# The reference takes both full products of every commutator, builds both
# sides of every instance and compares them plainly, so it shares neither the
# weight view's inverse set and the identity gamma halves of D1, the
# diagonal commutator, the D6 products shared by an instance pair, the
# current form of D4-D7, the commutation lemmas of D6 and D7 nor the
# cross-multiplied D7 comparison with check_drinfeld.  Like check_drinfeld
# it takes K^-1 as the generator product w^-1 w'^-1, which differs from the
# inverse of K = w w' on a module whose w^-1 or w'^-1 is corrupted.


def naive_reports(mod, kmax, lmax):
    """(instances_checked, failures) of D1-D7, naively."""
    i = 1
    rho = mod.table.entry(i, i)
    rs = (R - S).inv()
    zero = Matrix.zeros(mod.dim)
    w, winv, wp, wpinv = mod.get(W(i)), mod.get(W(i, -1)), mod.get(Wp(i)), mod.get(Wp(i, -1))
    kc, kcinv = w @ wp, winv @ wpinv

    def kpow(n):
        return kc**n if n >= 0 else kcinv ** (-n)

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
    found = {rid: [] for rid in ("D1", "D2", "D3", "D4", "D5_1", "D5_2", "D6", "D7")}
    ident = Matrix.identity(mod.dim)
    gh, gph = mod.get(GammaHalf()), mod.get(GammaPrimeHalf())
    found["D1"] += [
        (("winv",), w @ winv, ident),
        (("wpinv",), wp @ wpinv, ident),
        (("wwp",), comm(w, wp), zero),
        (("ghinv",), gh @ mod.get(GammaHalf(-1)), ident),
        (("gphinv",), gph @ mod.get(GammaPrimeHalf(-1)), ident),
        (("central-product",), gh @ gh @ gph @ gph, ident),
    ]
    for l1 in ells:
        for l2 in ells:
            found["D2"].append(((l1, l2), comm(al(l1), al(l2)), zero))
    for l in ells:
        for tag, m in (("w", w), ("winv", winv), ("wp", wp), ("wpinv", wpinv)):
            found["D3"].append(((l, tag), comm(al(l), m), zero))
    for k in range(-(kmax + 1), kmax + 2):
        found["D4"].append((("w x+", k), w @ xp(k) @ winv, xp(k).scale(rho)))
        found["D4"].append((("w x-", k), w @ xm(k) @ winv, xm(k).scale(rho.inv())))
        found["D4"].append((("wp x+", k), wp @ xp(k) @ wpinv, xp(k).scale(rho.inv())))
        found["D4"].append((("wp x-", k), wp @ xm(k) @ wpinv, xm(k).scale(rho)))
    for l in range(1, lmax + 1):
        th = theta(l)
        for k in range(-kmax, kmax + 1):
            if abs(l + k) <= kmax + 1:
                found["D5_1"].append((("x+", l, k), comm(al(l), xp(k)), xp(l + k).scale(th)))
                found["D5_1"].append((("x-", l, k), comm(al(l), xm(k)), (kpow(-l) @ xm(l + k)).scale(-th)))
        for k in range(-kmax, kmax + 1):
            if abs(k - l) <= kmax + 1:
                found["D5_2"].append((("x+", -l, k), comm(al(-l), xp(k)), (kpow(-l) @ xp(k - l)).scale(th)))
                found["D5_2"].append((("x-", -l, k), comm(al(-l), xm(k)), xm(k - l).scale(-th)))
    for sign, X, rr in ((1, xp, rho), (-1, xm, rho.inv())):
        for k in range(-(kmax + 1), kmax + 1):
            for k2 in range(-(kmax + 1), kmax + 1):
                lhs = X(k + 1) @ X(k2) - (X(k2) @ X(k + 1)).scale(rr)
                rhs = -(X(k2 + 1) @ X(k) - (X(k) @ X(k2 + 1)).scale(rr))
                found["D6"].append(((sign, k, k2), lhs, rhs))
    for k in range(-kmax, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            m = k + k2
            rhs = (kpow(k2) @ mod.get(Wser(i, m)) - kpow(-k) @ mod.get(Wpser(i, m))).scale(rs)
            found["D7"].append(((k, k2), comm(xp(k), xm(k2)), rhs))
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
    # a(1) stays diagonal, so the D5_1 families are decided entry by entry
    "a(1) + E_00": (lambda mod: mod.with_assign(Aim(1, 1), mod.get(Aim(1, 1)) + _unit(mod.dim, 0, 0)), {"D5_1"}),
    "x+(1) = 0": (lambda mod: mod.with_assign(Xp(1, 1), Matrix.zeros(mod.dim)), {"D5_1", "D5_2", "D6", "D7"}),
    "x-(0) * rs": (
        lambda mod: mod.with_assign(Xm(1, 0), mod.get(Xm(1, 0)).scale(R * S)),
        {"D5_1", "D5_2", "D6", "D7"},
    ),
    # a current off the form at a negative index
    "x-(-2) * 3": (
        lambda mod: mod.with_assign(Xm(1, -2), mod.get(Xm(1, -2)).scale(3)),
        {"D5_1", "D5_2", "D6", "D7"},
    ),
    # the window edge off the form: every x+ instance takes its plain products
    "x+(kmax+1) * 3": (lambda mod: mod.with_assign(Xp(1, 3), mod.get(Xp(1, 3)).scale(3)), {"D5_1", "D6"}),
    # x+(1), which D is read from, off the form; [1, x-(k2)] = 0 leaves D7
    "x+(1) + 1": (
        lambda mod: mod.with_assign(Xp(1, 1), mod.get(Xp(1, 1)) + Matrix.identity(mod.dim)),
        {"D4", "D5_1", "D5_2", "D6"},
    ),
    "w(2) + 1": (lambda mod: mod.with_assign(Wser(1, 2), mod.get(Wser(1, 2)) + Matrix.identity(mod.dim)), {"D7"}),
    # every current on the form, with a D that is not monomial
    "gamma2 twist, c = 1+r": (lambda mod: twist_gamma2(mod, 1 + R), set()),
    # Each corruption below is made at every stored index k, so all currents
    # stay on the form.  G x+(k) keeps both commutation identities, so the D6
    # and D7 lemmas decide, and only D7 fails.
    "G x+(k)": (lambda mod: _at_every_index(mod, Xp, lambda k, x: _g(mod) @ x), {"D7"}),
    # D- doubled: D+ x-(0) = c^-1 x-(0) D- fails, and instances with one
    # m = k + k2 no longer share a D7 verdict
    "x-(k) * 2^k": (
        lambda mod: _at_every_index(mod, Xm, lambda k, x: x.scale(Fraction(2) ** k)),
        {"D5_1", "D5_2", "D7"},
    ),
    # the last entry of D+ doubled: E Q = kappa Q D fails
    "x+(k) last column * 2^k": (
        lambda mod: _at_every_index(mod, Xp, lambda k, x: x.scale_columns([ONE] * (mod.dim - 1) + [Fraction(2) ** k])),
        {"D5_1", "D5_2", "D6", "D7"},
    ),
    # D+_j times (-rho)^j: kappa = -1, so D6 fails exactly where k - k2 is even
    "x+(k) (-rho)^(jk)": (
        lambda mod: _at_every_index(
            mod, Xp, lambda k, x: x.scale_columns([(-mod.table.entry(1, 1)) ** (j * k) for j in range(mod.dim)])
        ),
        {"D5_1", "D5_2", "D6", "D7"},
    ),
    # x+(0) + 1 carried along the form: x+(0) D+ = E x+(0) fails
    "(x+(0) + 1) D+^k": (
        lambda mod: _at_every_index(mod, Xp, lambda k, x: x + _dplus(mod, k)),
        {"D4", "D5_1", "D5_2", "D6", "D7"},
    ),
    # x+(0) = Z with Z^2 = 0 and Z D+ != E Z: Q = 0, yet X(a)X(b) != 0
    "x+(k) = Z D+^k": (
        lambda mod: _at_every_index(mod, Xp, lambda k, x: _nilpotent(mod.dim) @ _dplus(mod, k)),
        {"D4", "D5_1", "D5_2", "D6", "D7"},
    ),
    # K = w w' is still c I but w^-1 w'^-1 is not c^-1 I: D7 takes its plain path
    "w^-1 * 2": (lambda mod: mod.with_assign(W(1, -1), mod.get(W(1, -1)).scale(2)), {"D1", "D4", "D5_1", "D5_2", "D7"}),
    # K = w G w' is not scalar, while w G (w^-1 G^-1) = 1 still
    "w G, w^-1 G^-1": (
        lambda mod: mod.with_assign(W(1), mod.get(W(1)) @ _g(mod)).with_assign(
            W(1, -1), mod.get(W(1, -1)) @ _g(mod).inverse()
        ),
        {"D4", "D5_1", "D5_2", "D7"},
    ),
    # K = w G w' is diagonal but not central, with G = 1 but at entry 0: the
    # entrywise D5 families read (K^-l)_ii, the row of each nonzero x(0)_ij
    "w G_0, w^-1 G_0^-1": (
        lambda mod: mod.with_assign(W(1), mod.get(W(1)) @ _g0(mod)).with_assign(
            W(1, -1), mod.get(W(1, -1)) @ _g0(mod).inverse()
        ),
        {"D4", "D5_2", "D7"},
    ),
    # w^-1 w'^-1 is not diagonal: the D5 instances off the sign of e take
    # their plain products, and D7 its plain path
    "w'^-1 + E_01": (
        lambda mod: mod.with_assign(Wp(1, -1), mod.get(Wp(1, -1)) + _unit(mod.dim, 0, 1)),
        {"D1", "D3", "D4", "D5_1", "D5_2", "D7"},
    ),
    # One entry of each generator at the edges of the window (kmax = 2,
    # lmax = 2): the currents x+-(+-(kmax + 1)), which leave their sign off
    # the form, and w(2 kmax), w'(-2 kmax) and a(+-lmax), which the lattice
    # paths of D7 and D5 read entry by entry.
    **{
        f"{name} entry + 1": (lambda mod, gen=gen: _at_first_entry(mod, gen, lambda x: x + 1), failing)
        for name, gen, failing in (
            ("x+(kmax+1)", Xp(1, 3), {"D5_1", "D6"}),
            ("x+(-(kmax+1))", Xp(1, -3), {"D5_2", "D6"}),
            ("x-(kmax+1)", Xm(1, 3), {"D5_1", "D6"}),
            ("x-(-(kmax+1))", Xm(1, -3), {"D5_2", "D6"}),
            ("w(2 kmax)", Wser(1, 4), {"D7"}),
            ("w'(-2 kmax)", Wpser(1, -4), {"D7"}),
            ("a(lmax)", Aim(1, 2), {"D5_1"}),
            ("a(-lmax)", Aim(1, -2), {"D5_2"}),
        )
    },
    # a zero where the lattice side of D7 is not
    "w(2 kmax) entry = 0": (lambda mod: _at_first_entry(mod, Wser(1, 4), lambda x: ZERO), {"D7"}),
    # D- with the coefficient 1/2: every current on the form, with Fraction
    # points, and D+ x-(0) = c^-1 x-(0) D- fails
    "x-(k) * (1/2)^k": (
        lambda mod: _at_every_index(mod, Xm, lambda k, x: x.scale(Fraction(1, 2) ** k)),
        {"D5_1", "D5_2", "D7"},
    ),
    # the last entry of D+ times 1+r, the others monomials: the columns share
    # no scalar u, so the x+ sign is off the form and takes its products
    "x+(k) last column * (1+r)^k": (
        lambda mod: _at_every_index(mod, Xp, lambda k, x: x.scale_columns([ONE] * (mod.dim - 1) + [(1 + R) ** k])),
        {"D5_1", "D5_2", "D6", "D7"},
    ),
    # every D times u = 1+r (the twist), with one entry of w(2 kmax) or of
    # a(-lmax) corrupted: the lattice paths of D7 and D5 with a scalar u
    "gamma2 twist, c = 1+r, w(2 kmax) entry + 1": (
        lambda mod: _at_first_entry(twist_gamma2(mod, 1 + R), Wser(1, 4), lambda x: x + 1),
        {"D7"},
    ),
    "gamma2 twist, c = 1+r, a(-lmax) entry + 1": (
        lambda mod: _at_first_entry(twist_gamma2(mod, 1 + R), Aim(1, -2), lambda x: x + 1),
        {"D5_2"},
    ),
}


def _at_first_entry(mod, gen, f):
    """mod with the first nonzero entry x of gen, row by row, replaced by
    f(x)."""
    rows = [list(row) for row in mod.get(gen).rows]
    i, j = next((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x)
    rows[i][j] = f(rows[i][j])
    return mod.with_assign(gen, Matrix(rows))


def _unit(d, i, j):
    """The d x d matrix unit with a 1 at (i, j)."""
    return Matrix([[1 if (a, b) == (i, j) else 0 for b in range(d)] for a in range(d)])


def _g0(mod):
    return Matrix.diagonal([2] + [1] * (mod.dim - 1))


def _g(mod):
    return Matrix.diagonal(range(1, mod.dim + 1))


def _dplus(mod, k):
    """D+^k for the D+ that current_form reads from mod."""
    return Matrix.diagonal([y**k for y in _form_diagonal(current_form(mod, 1, 2))])


def _form_diagonal(form):
    """The entries u d_j of the diagonal u D of a current form (u, d)."""
    u, d = form
    return [RatFunc.from_point(*p) * (ONE if u is None else u) for p in d]


def _nilpotent(d):
    """[[1, 1], [-1, -1]] in the top left corner of a d x d zero matrix."""
    return Matrix([[(1 if i == 0 else -1) if i < 2 and j < 2 else 0 for j in range(d)] for i in range(d)])


def _at_every_index(mod, gen, f):
    """mod with every stored current x = gen(1, k) replaced by f(k, x)."""
    out = mod
    for g in mod.generators():
        if g.kind == gen(1, 0).kind:
            out = out.with_assign(g, f(g.k, mod.get(g)))
    return out


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_failure_reports_match_the_naive_reference(mutation):
    kmax, lmax = 2, 2
    mutate, failing = MUTATIONS[mutation]
    mod = mutate(build_current_eval(3, kmax=kmax, lmax=lmax))
    reports = {r.relation_id: r for r in check_drinfeld(mod, kmax, lmax)}
    expected = naive_reports(mod, kmax, lmax)
    for rid, (count, failures) in expected.items():
        assert reports[rid].instances_checked == count
        assert reports[rid].failures == failures
    assert {rid for rid, (_, failures) in expected.items() if failures} == failing


# At n = 0 the currents are zero, and at n = 1 x(0)x(0) = 0: D6 takes its
# lemma with Q = 0, and every relation holds.
@pytest.mark.parametrize("n", (0, 1))
def test_reports_match_the_naive_reference_when_q_vanishes(n):
    kmax, lmax = 2, 2
    mod = build_current_eval(n, kmax=kmax, lmax=lmax)
    for sign in (1, -1):
        _, d = current_form(mod, sign, kmax)
        q, _ = anti_diagonal_form(mod.get((Xp if sign > 0 else Xm)(1, 0)), d)
        assert q.is_zero()
    reports = {r.relation_id: r for r in check_drinfeld(mod, kmax, lmax)}
    for rid, (count, failures) in naive_reports(mod, kmax, lmax).items():
        assert reports[rid].instances_checked == count
        assert reports[rid].failures == failures == []


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


# Matrix products made by each relation on a module whose currents are all
# on the form (kmax = K, lmax = L <= 2K):
# - D1: none, each inverse pair read off the weight view's inverse set and
#   level zero off the identity gamma halves, where the inverse and
#   centrality products of the group-likes made 7;
# - D4: none, each tag's family decided by the conjugation lemma, where
#   w x(0) w^-1, two products once per tag, made 8;
# - D5_1 and D5_2: none, each family read entry by entry with (K^-l)_ii a
#   lattice point of the weight view, where K^-l x(0) D^e once per l in
#   each made 2L and L, and then K^-l = K^-(l-1) K^-1 per l in D5_1, whose
#   diagonal the entrywise family verdict read, L;
# - D6: Q = x(0)x(0) once per sign, whatever K, where X(a)X(0) once per a
#   made 2(2K+3);
# - D7: x+(0)x-(0) and x-(0)x+(0) once, whatever K, where x+(k)x-(0) and
#   x-(k2)x+(0) once per index, two diagonal products per right side and the
#   powers of K that D5 did not build made 2(2K+1) + 2(2K+1)^2 + K + max(K-L, 0).
def relation_products(K, L):
    return {
        "D1": 0,
        "D2": 0,
        "D3": 0,
        "D4": 0,
        "D5_1": 0,
        "D5_2": 0,
        "D6": 2,
        "D7": 2,
    }


def products_per_relation(monkeypatch, check, dim=None, passing=True):
    """The matrix products each relation's checker spans while check() runs,
    which must pass unless passing is False; with dim, only the products of
    dim x dim matrices."""
    counted = lambda a, b: dim is None or a.n == dim
    return calls_per_relation(monkeypatch, check, Matrix, "__matmul__", counted, passing)


def calls_per_relation(monkeypatch, check, owner, name, counted=lambda *args: True, passing=True):
    """The calls of owner.name for which counted(*args) holds that each
    relation's checker spans while check() runs, which must pass unless
    passing is False."""
    import rsaffine.rep_core as rep_core

    calls, spans, fn = 0, {}, getattr(owner, name)

    def counting(*args):
        nonlocal calls
        calls += counted(*args)
        return fn(*args)

    class Spans(rep_core._Checker):
        def __init__(self, relation_id):
            super().__init__(relation_id)
            self.start = calls

        def done(self):
            spans[self.report.relation_id] = calls - self.start
            return super().done()

    monkeypatch.setattr(owner, name, counting)
    monkeypatch.setattr(rep_core, "_Checker", Spans)
    assert all_pass(check()) or not passing
    return spans


@pytest.mark.parametrize("kmax,lmax", ((1, 1), (2, 2), (4, 3), (8, 1)))
def test_each_relation_builds_its_products_once(monkeypatch, kmax, lmax):
    mod = build_current_eval(1, kmax=kmax, lmax=lmax)
    spans = products_per_relation(monkeypatch, lambda: check_drinfeld(mod, kmax, lmax))
    assert {rid: n for rid, n in spans.items() if not rid.startswith("D8")} == relation_products(kmax, lmax)


# Two diagonal generators commute, and the weight view's diagonal set names
# every stored diagonal generator, a(l) included: the R1 commutators of the
# group-likes and the D1, D2 and D3 ones of the group-likes and the a(l) are
# read off it, with no commutator and no is_diagonal test, where each of
# their instances took a commutator that tested both operands.
def test_diagonal_commutators_are_read_off_the_view(monkeypatch):
    import rsaffine.rep_core as rep_core

    mod = build_current_eval(12, False, kmax=8, lmax=16)
    chev = build_chevalley_eval(12)
    # the diagonal set is read once per module, on first use
    assert Aim(1, 16) in mod.weights.diagonal and W(0) in chev.weights.diagonal
    for owner, name in ((rep_core, "commutator"), (Matrix, "is_diagonal")):
        spans = calls_per_relation(monkeypatch, lambda: check_drinfeld(mod, 8, 16), owner, name)
        assert spans["D1"] == spans["D2"] == spans["D3"] == 0
        assert calls_per_relation(monkeypatch, lambda: check_chevalley(chev), owner, name)["R1"] == 0


# The current form is read as lattice points: current_form shifts numerators
# by the points of D, the D5 families compare a_i with a_j plus a shifted
# copy of theta(l), and D7 compares each w(m) with two shifted entries, so
# on the evaluation module at the cap corner D4-D7 raise no power, scale no
# column, and D5 takes no difference, where they did all three.
def test_the_form_is_read_not_multiplied(monkeypatch):
    mod = build_current_eval(12, False, kmax=8, lmax=16)
    check = lambda: check_drinfeld(mod, 8, 16)
    ds = ("D4", "D5_1", "D5_2", "D6", "D7")
    for owner, name in ((RatFunc, "__pow__"), (Matrix, "scale_columns")):
        spans = calls_per_relation(monkeypatch, check, owner, name)
        assert [spans[rid] for rid in ds] == [0] * len(ds)
    spans = calls_per_relation(monkeypatch, check, RatFunc, "__sub__")
    assert spans["D5_1"] == spans["D5_2"] == 0


# -- R2, R3 and R4 against the plain loops -----------------------------------------------
# tests/plainchevalley.py builds both sides of every R2 and R3 instance and
# each R4 step from its four products.  check_chevalley reads R2, and R4's
# conjugation w b w^-1, off the conjugation lemma when the group-likes are
# diagonal, and R3 and R4 of a module hopf.tensor returned off its factors
# (the tensor lemmas).  So its reports must equal the oracle's on modules that
# meet the lemmas' preconditions and on modules that break one of them: for
# tensors, factors whose Serre elements are nonzero, factors that break a
# hypothesis of a lemma, and stored generators replaced after the build,
# which leave the coproduct form and take the plain path.


def _scaled(mod):
    """mod with the k-th nonzero entry of each E and F, row by row, times
    k + 2: the supports, so R2 and every conjugation scalar, are kept, and
    the quantum Serre elements are not zero."""
    out = mod
    for gen in (E(0), E(1), F(0), F(1)):
        k = iter(range(2, 10**6))
        out = out.with_assign(gen, Matrix([[x * next(k) if x else x for x in row] for row in mod.get(gen).rows]))
    return out


def _twisted(mod, kind, k):
    """mod with the group-like pair Gen(kind, k, +-1) times diag(r^+-j)."""
    d = [R**j for j in range(mod.dim)]
    plus, minus = Gen(kind, k, 1), Gen(kind, k, -1)
    out = mod.with_assign(plus, mod.get(plus).scale_columns(d))
    return out.with_assign(minus, mod.get(minus).scale_columns([x.inv() for x in d]))


def _factors(left=2, right=3):
    return build_chevalley_eval(left), substitute_module(build_chevalley_eval(right), a=B)


def _tensor_cases():
    mL, mR = _factors()
    yield "plain", tensor(mL, mR)
    yield "scaled left", tensor(_scaled(mL), mR)
    yield "scaled right", tensor(mL, _scaled(mR))
    yield "scaled both", tensor(_scaled(mL), _scaled(mR))
    for kind in ("W", "Wp"):
        for k in (0, 1):
            tl, tr = _twisted(mL, kind, k), _twisted(mR, kind, k)
            yield f"{kind}({k}) twisted on the left", tensor(tl, mR)
            yield f"{kind}({k}) twisted on the right", tensor(mL, tr)
            yield f"{kind}({k}) twisted on both", tensor(tl, tr)
    for i in (0, 1):
        yield f"e({i}) = 0 on the left", tensor(mL.with_assign(E(i), Matrix.zeros(mL.dim)), mR)
        yield f"e({i}) = 0 on the right", tensor(mL, mR.with_assign(E(i), Matrix.zeros(mR.dim)))
    one, oneR = _factors(0, 0)
    yield "1-dimensional left", tensor(one, mR)
    yield "1-dimensional right", tensor(mL, oneR)
    yield "1-dimensional both", tensor(one, oneR)
    built = tensor(mL, mR)
    for gen in (E(0), E(1), F(1), W(0, -1)):
        yield f"{gen} replaced after the build", built.with_assign(gen, built.get(gen).scale(2))
    # E(1) replaced by its image from a left factor with e(1) doubled
    doubled = tensor(mL.with_assign(E(1), mL.get(E(1)).scale(2)), mR).get(E(1))
    yield "left factor's E(1) replaced after the build", built.with_assign(E(1), doubled)


def _nested_tensors():
    """Tensors with a factor that is itself a tensor, which answers the outer
    tensor lemmas from its own weight view."""
    v1 = build_chevalley_eval(1)

    def at(n, pin):
        return substitute_module(build_chevalley_eval(n), a=pin)

    yield "(V1 x V1(b)) x V1(2)", tensor(tensor(v1, at(1, B)), at(1, rf(2)))
    yield "V1 x (V1(b) x V2(1+r))", tensor(v1, tensor(at(1, B), at(2, 1 + R)))
    yield "(V1 x V1(b)) x (V1(2) x V1(3))", tensor(tensor(v1, at(1, B)), tensor(at(1, rf(2)), at(1, rf(3))))
    twisted = tensor(_twisted(v1, "W", 0), at(1, B))
    yield "(V1 with W(0) twisted x V1(b)) x V1(2)", tensor(twisted, at(1, rf(2)))
    yield "V1(2) x (V1 with W(0) twisted x V1(b))", tensor(at(1, rf(2)), twisted)


def _chevalley_modules():
    yield from _nested_tensors()
    for n in (1, 2):
        chev, curr = build_chevalley_eval(n), build_current_eval(n, kmax=1, lmax=1)
        for which in CORRUPTIONS:
            yield f"n={n} {which}", apply_mutation(chev, curr, which)[0]
    for left in (1, 2, 3):
        for right in (1, 2, 3):
            sl, sr = build_chevalley_eval(left), substitute_module(build_chevalley_eval(right), a=B)
            yield f"tensor {left}x{right}", tensor(sl, sr)
            yield f"tensor {left}x{right} pinned", tensor(substitute_module(sl, a=1 + R), substitute_module(sr, b=2 + S))
    for n in (1, 2, 3):
        for m in ("s=r^-1", "r=s^2", "r=s^-3", "independent"):
            # s = r makes 1/(r - s) a pole, so check_chevalley refuses it at R3
            yield f"n={n} {m}", specialize_module(build_chevalley_eval(n), parse_spec_map(m))
    # at n = 3, e_i^3 != 0, so a wrong R4 scalar changes the iterate
    for n in (1, 3):
        chev = build_chevalley_eval(n)
        ident = Matrix.identity(chev.dim)
        broken = {
            "w(1,-1) * 2 is not the inverse of w(1)": (W(1, -1), chev.get(W(1, -1)).scale(2)),
            "w'(0,-1) * r is not the inverse of w'(0)": (Wp(0, -1), chev.get(Wp(0, -1)).scale(R)),
            "e(1) + 1 has two values of w_a w^-1_b": (E(1), chev.get(E(1)) + ident),
            "e(1) + f(1) has two values of w_a w^-1_b": (E(1), chev.get(E(1)) + chev.get(F(1))),
            "f(0) + 1 has two values of w'^-1_a w'_b": (F(0), chev.get(F(0)) + ident),
            "w(0) + e(0) is not diagonal": (W(0), chev.get(W(0)) + chev.get(E(0))),
            "e(0) = 0": (E(0), Matrix.zeros(chev.dim)),
            "e(1) = 0": (E(1), Matrix.zeros(chev.dim)),
            "f(1) = 0": (F(1), Matrix.zeros(chev.dim)),
            "gh^-1 * 2 is not the inverse of gh": (GammaHalf(-1), ident.scale(2)),
        }
        for name, (gen, mat) in broken.items():
            yield f"n={n} {name}", chev.with_assign(gen, mat)
        yield f"n={n} w(1) = diag(1+r, 1, ...) with its inverse", _non_monomial_pair(chev)
        # level zero without the identity: (-1)^2 (-1)^2 = 1
        minus = {g(e): -ident for g in (GammaHalf, GammaPrimeHalf) for e in (1, -1)}
        yield f"n={n} both gamma halves at -1", MatrixModule(chev.table, {**chev.assign, **minus})
        # gh = P, a unipotent that is not diagonal: level zero fails with
        # gph = 1 and holds with gph = P^-1, both on the products
        p = ident + _unit(chev.dim, 0, chev.dim - 1)
        unipotent = {GammaHalf(): p, GammaHalf(-1): p.inverse()}
        yield f"n={n} gh not diagonal", MatrixModule(chev.table, {**chev.assign, **unipotent}, check=False)
        inverse = {GammaPrimeHalf(): p.inverse(), GammaPrimeHalf(-1): p}
        yield f"n={n} gh and gph^-1 not diagonal", MatrixModule(chev.table, {**chev.assign, **unipotent, **inverse})
    for name, mod in _tensor_cases():
        yield f"tensor 2x3 {name}", mod
    # the scaling lemma on failing R3 and R4 instances, and on pinned direct
    # modules: at a = 1+r and a = 1/(1+r) an entry has a real denominator,
    # so they take the unscaled path; at a = 2 and a = r^(1/2) the scaled one
    for n in (1, 3):
        yield f"n={n} scaled", _scaled(build_chevalley_eval(n))
        for pin in ("1+r", "1/(1+r)", "2", "r^(1/2)"):
            yield f"n={n} pinned a={pin}", substitute_module(build_chevalley_eval(n), a=parse(pin))
    doubled = apply_mutation(build_chevalley_eval(2), None, "e1scale")[0]
    for pin in ("2", "2+s"):
        yield f"n=2 pinned a={pin}, e(1) doubled", substitute_module(doubled, a=parse(pin))
    mL, mR = _factors()
    yield "tensor 2x3 with a non-diagonal w(0) on the left", tensor(_conjugated(mL, W(0)), mR)
    yield "tensor 2x3 with a non-diagonal w'(1) on the right", tensor(mL, _conjugated(mR, Wp(1)))


def _non_monomial_pair(mod):
    """mod with w(1) = diag(1+r, 1, ..., 1) and w(1)^-1 its inverse: a
    diagonal inverse pair with a non-monomial entry, so outside the weight
    view's lattice points, and R2 fails on e(1) and f(1)."""
    d = [1 + R] + [ONE] * (mod.dim - 1)
    pair = {W(1): Matrix.diagonal(d), W(1, -1): Matrix.diagonal([x.inv() for x in d])}
    return MatrixModule(mod.table, {**mod.assign, **pair})


def _conjugated(mod, plus):
    """mod with the group-like pair of plus conjugated by 1 + (an off-diagonal
    unit): still an inverse pair, but no longer diagonal, so it commutes with
    neither the other group-likes nor, in general, its own e and f."""
    n = mod.dim
    p = Matrix([[ONE if i == j or (i, j) == (0, n - 1) else ZERO for j in range(n)] for i in range(n)])
    pinv = p.inverse()
    minus = Gen(plus.kind, plus.i, -1)
    out = mod.with_assign(plus, p @ mod.get(plus) @ pinv)
    return out.with_assign(minus, p @ mod.get(minus) @ pinv)


@pytest.mark.parametrize("mod", [pytest.param(mod, id=name) for name, mod in _chevalley_modules()])
def test_r2_and_r4_match_the_plain_loops(mod):
    reports = {r.relation_id: r for r in check_chevalley(mod)}
    for rid, (count, failures) in plain_reports(mod).items():
        assert reports[rid].instances_checked == count
        assert reports[rid].failures == failures


# Matrix products made by R2 and R4 on V_n(a) at A1^(1) (two nodes, a_01 =
# a_10 = -2, so three steps per ad-iterate): none for R2, where each of its 16
# instances took two; two per R4 step, e b and b (c e), where e b and
# w b w^-1 e took four, so 4 iterates x 3 steps x 2 = 24 (48 before).
@pytest.mark.parametrize("n", (1, 2, 5))
def test_r2_and_r4_take_the_conjugation_lemma(monkeypatch, n):
    mod = build_chevalley_eval(n)
    spans = products_per_relation(monkeypatch, lambda: check_chevalley(mod))
    assert (spans["R2"], spans["R4"]) == (0, 24)


# The weight view against the products it stands for: g is in the diagonal
# set exactly when it is diagonal, and has lattice points exactly when it is
# diagonal with nonzero monomial entries, whose points they are; a scalar
# that is a value is the c of g x h == c x multiplied out, for h =
# g.partner; "not homogeneous" (False) has two nonzeros x_ab with different
# g_a h_b; "not in the view" (None) has g or h without points; and g, a
# gamma half too, is in the inverse set exactly when g and h have points
# and h g == 1.
@pytest.mark.parametrize(
    "mod",
    [
        pytest.param(mod, id=name)
        for name, mod in (*_chevalley_modules(), *(("tensor 2x3 " + n, m) for n, m in _tensor_cases()))
    ],
)
def test_weight_view_matches_the_products(mod):
    wts, nodes = mod.weights, range(mod.table.size)
    halves = (g(e) for g in (GammaHalf, GammaPrimeHalf) for e in (1, -1))
    for g in (*(Gen(kind, i, e) for kind in (W_KIND, WP_KIND) for i in nodes for e in (1, -1)), *halves):
        gm, hm = mod.get(g), mod.get(g.partner)
        assert (g in wts.diagonal) == gm.is_diagonal()
        entries = [gm[a, a] for a in range(mod.dim)]
        monomial = gm.is_diagonal() and all(x and x.is_monomial() for x in entries)
        assert wts.points.get(g) == ([x.as_point() for x in entries] if monomial else None)
        assert not monomial or [RatFunc.from_point(*p) for p in wts.points[g]] == entries
        viewed = g in wts.points and g.partner in wts.points
        assert (g in wts.inverse) == (viewed and hm @ gm == Matrix.identity(mod.dim))
        for x in (gen(i) for gen in (E, F) for i in nodes):
            v, xm = wts.scalar(g, x), mod.get(x)
            assert (v is None) == (not viewed)
            if v is False:
                assert len({gm[a, a] * hm[b, b] for a, row in enumerate(xm._rows) for b in row}) > 1
            elif v is not None:
                assert gm @ xm @ hm == xm.scale(v)
            assert wts.scalar(g, x) is v


def test_conjugation_scalar_reads_the_lemma():
    chev = build_chevalley_eval(2)
    ident, e1 = Matrix.identity(chev.dim), chev.get(E(1))
    rho = chev.table.entry(1, 1)
    assert chev.weights.scalar(W(1), E(1)) == rho
    assert chev.with_assign(E(1), ident).weights.scalar(W(1), E(1)) == ONE
    assert chev.with_assign(E(1), Matrix.zeros(chev.dim)).weights.scalar(W(1), E(1)) == ONE
    assert chev.with_assign(E(1), e1 + ident).weights.scalar(W(1), E(1)) is False
    # a non-diagonal g, then a non-diagonal partner: no scalar, no inverse pair
    for gen in (W(1), W(1, -1)):
        wts = chev.with_assign(gen, chev.get(gen) + e1).weights
        assert wts.scalar(W(1), E(1)) is None
        assert W(1) not in wts.inverse and W(1, -1) not in wts.inverse
    # the inverse pairs: all of them, and none at w(1) once one entry of
    # w(1)^-1, the first or the last, is doubled
    pairs = {g(i, e) for g in (W, Wp) for i in (0, 1) for e in (1, -1)}
    pairs |= {g(e) for g in (GammaHalf, GammaPrimeHalf) for e in (1, -1)}
    assert chev.weights.inverse == pairs
    for k in (0, chev.dim - 1):
        d = [rf(2) if a == k else ONE for a in range(chev.dim)]
        off = chev.with_assign(W(1, -1), chev.get(W(1, -1)).scale_columns(d)).weights
        assert off.inverse == pairs - {W(1), W(1, -1)}
    # read once per module
    assert chev.weights is chev.weights


# A diagonal inverse pair with a non-monomial entry leaves the view: it is
# diagonal, but has no lattice points, no inverse pair and no scalar, so its
# R1 and R2 instances take their plain products, and the R2 instances on
# e(1) and f(1) fail with the sides the plain loops build.
@pytest.mark.parametrize("n", (1, 3))
def test_a_non_monomial_inverse_pair_leaves_the_view(n):
    mod = _non_monomial_pair(build_chevalley_eval(n))
    wts = mod.weights
    assert {W(1), W(1, -1)} <= wts.diagonal
    assert W(1) not in wts.points and W(1, -1) not in wts.points
    assert W(1) not in wts.inverse and wts.scalar(W(1), E(1)) is None
    reports, plain = {r.relation_id: r for r in check_chevalley(mod)}, plain_reports(mod)
    for rid in ("R1", "R2"):
        assert (reports[rid].instances_checked, reports[rid].failures) == plain[rid]
    assert reports["R1"].passed and not reports["R2"].passed


def test_tensor_lemmas_see_the_cases_they_decide():
    mL, mR = _factors()
    # the scaled factors' Serre elements are nonzero on both sides, so the
    # tensor's iterates are the lemma's sums of both terms
    for m in (_scaled(mL), _scaled(mR)):
        assert len(plain_reports(m)["R4"][1]) == 4
    scaled = tensor(_scaled(mL), _scaled(mR))
    assert rep_core._r4_on_factors(mL, mR, 0, 1, -2, True)[0] is True
    for left in (True, False):
        holds, b = rep_core._r4_on_factors(*scaled.factors, 0, 1, -2, left)
        assert holds is None and not b().is_zero()
    # twisting one group-like on both factors keeps the scalars equal across
    # them and breaks P_ij P_ji = P_ii^a_ij: the plain path
    for kind, left in (("W", True), ("Wp", False)):
        both = tensor(_twisted(mL, kind, 0), _twisted(mR, kind, 0))
        assert both.factors is not None
        assert rep_core._r4_on_factors(*both.factors, 0, 1, -2, left) is None
    # a stored generator replaced after the build: no factors, the plain path
    for name, mod in _tensor_cases():
        assert (mod.factors is None) == name.endswith("after the build")


# Modules are read-only, and only hopf.tensor records factors: every other way
# to make a module, a re-wrap of a tensor included, records none, so a stored
# generator of a module with factors is its coproduct image by construction.
def test_modules_are_read_only_and_only_tensor_records_factors():
    mL, mR = _factors()
    built = tensor(mL, mR)
    # mL is a build_chevalley_eval module
    for mod in (built, mL, build_current_eval(1, kmax=1, lmax=1)):
        with pytest.raises(TypeError):
            mod.assign[E(0)] = Matrix.zeros(mod.dim)
    assert built.factors == (mL, mR)
    derived = (
        built.with_assign(E(0), built.get(E(0))),
        substitute_module(built, b=2 + S),
        specialize_module(built, parse_spec_map("s=r^-1")),
        twist_sigma(built, (-1, 1)),
        MatrixModule(built.table, built.assign),
    )
    for mod in derived:
        assert mod.factors is None
    assert with_series(build_current_eval(1, kmax=1, lmax=1), 2, 1).factors is None


# Matrix products of tensor size made by R3 and R4 on V_m(a) (x) V_n(b): none,
# since both read the factors' commutators and iterates.
@pytest.mark.parametrize("left,right", ((1, 1), (2, 3), (4, 2)))
def test_tensor_r3_and_r4_make_no_tensor_sized_product(monkeypatch, left, right):
    mod = tensor(*_factors(left, right))
    spans = products_per_relation(monkeypatch, lambda: check_chevalley(mod), dim=mod.dim)
    assert (spans["R3"], spans["R4"]) == (0, 0)


# R1 on V_m(a) (x) V_n(b), and on tensors with a tensor factor, makes no
# tensor-sized product either: Kronecker products of diagonal inverse pairs
# are diagonal inverse pairs, which the weight view reads, the gamma halves
# are the identity, and diagonal group-likes commute with no product, so R1
# needs no lemma at any depth; multiplying out the pairs and the gamma
# products made 2 N + 5 = 9.  A nested tensor with a twisted inner factor
# fails R2, R3 and R4, not R1.
@pytest.mark.parametrize(
    "mod",
    [
        *(pytest.param(tensor(*_factors(left, right)), id=f"{left}-{right}") for left, right in ((1, 1), (2, 3), (4, 2))),
        *(pytest.param(mod, id=name) for name, mod in _nested_tensors()),
    ],
)
def test_tensor_r1_makes_no_tensor_sized_product(monkeypatch, mod):
    spans = products_per_relation(monkeypatch, lambda: check_chevalley(mod), dim=mod.dim, passing=False)
    assert spans["R1"] == 0
    assert check_chevalley(mod)[0].passed


# No diagonal inverse pair is multiplied: building every sl2 module, and the
# tensor of two untwisted factors, reads the pairs off the weight view and
# the identity gamma halves, and so do R1 and D1 on the clean modules.
@pytest.mark.parametrize("shift", (False, True))
@pytest.mark.parametrize("n", range(5))
def test_no_diagonal_pair_is_multiplied(monkeypatch, n, shift):
    sizes = []
    matmul = Matrix.__matmul__

    def counting(a, b):
        sizes.append(a.n)
        return matmul(a, b)

    with monkeypatch.context() as m:
        m.setattr(Matrix, "__matmul__", counting)
        chev = build_chevalley_eval(n, shift)
        curr = build_current_eval(n, shift, kmax=1, lmax=1)
        build_series_eval(n, shift, 4)
        pinned = substitute_module(build_chevalley_eval(n, shift), a=B)
        tens = tensor(chev, pinned)
    assert sizes == []
    for mod in (chev, tens):
        assert products_per_relation(monkeypatch, lambda: check_chevalley(mod))["R1"] == 0
    assert products_per_relation(monkeypatch, lambda: check_drinfeld(curr, 1, 1))["D1"] == 0


# R3 and R4 of a module that is not a tensor compare E_i and F_i scaled by
# r - s (the scaling lemma) exactly when r - s and every entry of E_i and F_i
# are Laurent polynomials; the verdicts and reports are the plain loops'
# (test_r2_and_r4_match_the_plain_loops).
def test_scaled_generators_only_for_laurent_entries(monkeypatch):
    seen = []
    scaled = rep_core.scaled_chevalley

    def spy(mod, c):
        out = scaled(mod, c)
        seen.append(out is not None)
        return out

    monkeypatch.setattr(rep_core, "scaled_chevalley", spy)
    chev = build_chevalley_eval(3)
    cases = {
        "symbolic": (chev, True),
        "a = 2": (substitute_module(chev, a=rf(2)), True),
        "a = 1+r": (substitute_module(chev, a=1 + R), False),
        "a = 1/(1+r)": (substitute_module(chev, a=(1 + R).inv()), False),
        "s = r^-1": (specialize_module(chev, parse_spec_map("s=r^-1")), True),
    }
    for name, (mod, laurent) in cases.items():
        seen.clear()
        check_chevalley(mod)
        assert seen == [laurent], name
    # a tensor reads R3 and R4 off its factors and scales nothing
    seen.clear()
    check_chevalley(tensor(*_factors()))
    assert seen == []
    # the scaled generators are c E_i and c F_i, and the group-likes are kept
    mod = scaled(chev, R - S)
    for i in (0, 1):
        assert mod.get(E(i)) == chev.get(E(i)).scale(R - S)
        assert mod.get(F(i)) == chev.get(F(i)).scale(R - S)
        assert mod.get(W(i)) is chev.get(W(i))
    assert mod.get(E(1))[0, 1] == R**3 - S**3
    # c x has the support of x, so the scaled module shares the weight view;
    # c = 0 would not keep the supports, and scales nothing
    assert mod.weights is chev.weights
    assert scaled(chev, ZERO) is None


# -- the current form ------------------------------------------------------------------


# Every current that build_current_eval stores in the window is x(0) D^k with a
# monomial D, and the commutation identities of the D6 and D7 lemmas hold with
# kappa = rr, so D4-D7 never fall back to their plain products on it.
def assert_lemma_path(mod, kmax):
    rho = mod.table.entry(1, 1)
    diag = {}
    for sign, gen, rr in ((1, Xp, rho), (-1, Xm, rho.inv())):
        diag[sign] = current_form(mod, sign, kmax)
        assert diag[sign] is not None
        q, kappa = anti_diagonal_form(mod.get(gen(1, 0)), diag[sign][1])
        assert q.is_zero() or RatFunc.from_point(*kappa) == rr
    assert commutation_scalar(mod.weights, mod.get(Xp(1, 0)), mod.get(Xm(1, 0)), diag[1], diag[-1])
    return diag


@pytest.mark.parametrize("kmax", (1, 4, 8))
@pytest.mark.parametrize("shift", (False, True))
def test_every_stored_current_is_on_the_form(shift, kmax):
    for n in range(13):
        diag = assert_lemma_path(build_current_eval(n, shift, kmax=kmax, lmax=1), kmax)
        # no scalar u: every entry of D is a monomial, read as a lattice point
        assert diag[1][0] is None and diag[-1][0] is None


# The loop twists scale D by c, which cancels in kappa and leaves K alone.
@pytest.mark.parametrize("twist", ("gamma1", "gamma2 1+r", "gamma2 2+s", "gamma2 a", "gamma2 rs"))
def test_twisted_modules_take_the_lemma_path(twist):
    scalar = {"gamma2 1+r": 1 + R, "gamma2 2+s": 2 + S, "gamma2 a": A, "gamma2 rs": R * S}.get(twist)
    for n in range(13):
        for shift in (False, True):
            mod = build_current_eval(n, shift, kmax=2, lmax=1)
            assert_lemma_path(twist_gamma1(mod) if scalar is None else twist_gamma2(mod, scalar), 2)


# Any D is sound, because each k is compared with the stored current: a
# corrupted x(1) gives a wrong D, and one current off the form, inside the
# window or at its edges k = +-(kmax + 1), leaves its sign without a D.
@pytest.mark.parametrize(
    "corrupt,plus,minus",
    (
        (lambda mod: mod.with_assign(Xm(1, -2), mod.get(Xm(1, -2)).scale(3)), True, False),
        (lambda mod: mod.with_assign(Xm(1, -3), mod.get(Xm(1, -3)).scale(3)), True, False),
        (lambda mod: mod.with_assign(Xp(1, 1), mod.get(Xp(1, 1)).scale(3)), False, True),
        (lambda mod: mod.with_assign(Xp(1, 3), mod.get(Xp(1, 3)).scale(3)), False, True),
        (lambda mod: mod.with_assign(Xp(1, -1), mod.get(Xp(1, -1)).scale(3)), False, True),
        (lambda mod: mod.with_assign(Xm(1, 2), mod.get(Xm(1, 2)).scale(3)), True, False),
        (lambda mod: twist_gamma2(mod, 1 + R), True, True),
    ),
    ids=(
        "x-(-2) * 3",
        "x-(-(kmax+1)) * 3",
        "x+(1) * 3",
        "x+(kmax+1) * 3",
        "x+(-1) * 3",
        "x-(2) * 3",
        "gamma2 twist, c = 1+r",
    ),
)
def test_current_form_marks_the_indices_off_the_form(corrupt, plus, minus):
    kmax = 2
    mod = corrupt(build_current_eval(2, kmax=kmax, lmax=1))
    for sign, gen, on in ((1, Xp, plus), (-1, Xm, minus)):
        form = current_form(mod, sign, kmax)
        assert (form is not None) == on
        if on:
            diag = _form_diagonal(form)
            for k in range(-(kmax + 1), kmax + 2):
                assert mod.get(gen(1, k)) == mod.get(gen(1, 0)).scale_columns([y**k for y in diag])


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
