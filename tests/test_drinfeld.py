"""Polynomial reconstruction from eigenvalue series, closed forms, mirror
law, per-weight generating functions, and series multiplicativity."""

from dataclasses import fields

import pytest
from truncseries import TruncSeries

from rsaffine.drinfeld import (
    DrinfeldPoly,
    _mirror,
    _poly_from_roots,
    HwSeries,
    closed_form_P,
    drinfeld_report,
    expand,
    extract_hw_series,
    minus_series_of,
    plus_series_of,
    poly_text,
    _expand_rq,
    reconstruct_P,
    rq_polynomials,
    verify_RQ_form,
    weight_gamma_series,
)
from rsaffine.errors import IndexOutOfRange, MirrorMismatch, NoSolution, NotEigenvector
from rsaffine.field import A, B, ONE, R, S, ZERO, quantum_int
from rsaffine.rep_core import Wser, Xp
from rsaffine.sl2 import build_current_eval, build_series_eval

RHO = R * S**-1


def _module(n, shift=False, order=None):
    order = order if order is not None else 2 * n + 2
    return build_current_eval(n, shift, kmax=max(1, (order + 1) // 2), lmax=1)


def test_hw_series_values_v1():
    mod = _module(1)
    h = extract_hw_series(mod, 4)
    assert h.plus[0] == R
    assert h.minus[0] == S
    # hand-checked expansion of r (1 - a r^-2 s z)/(1 - a r^-1 z)
    assert h.plus[1] == (R - S) * A * R**-1
    assert h.plus[2] == (R - S) * A**2 * R**-2
    assert h.minus[1] == -(R - S) * A**-1 * S**-1


def test_hw_series_constant_for_n0():
    mod = _module(0, order=6)
    h = extract_hw_series(mod, 3)
    assert h.plus == (ONE, ZERO, ZERO, ZERO)
    assert h.minus == (ONE, ZERO, ZERO, ZERO)


def test_hw_constant_term_product_is_rs_power():
    for n in range(4):
        h = extract_hw_series(_module(n), 2 * n + 2)
        assert h.plus[0] * h.minus[0] == (R * S) ** n


def test_closed_form_small():
    assert closed_form_P(0).text() == "1"
    p1 = closed_form_P(1)
    assert p1.coeffs == (ONE, -A * R**-2)
    p2 = closed_form_P(2)
    assert p2.coeffs[1] == -(A * R**-2 * S**-1 + A * R**-3)
    assert p2.coeffs[2] == A**2 * R**-5 * S**-1


def test_closed_form_mirror_is_rs_twist():
    p = closed_form_P(3)
    rs3 = (R * S) ** 3
    assert p.mirror == tuple(c * rs3**k for k, c in enumerate(p.coeffs))


@pytest.mark.parametrize("n", (0, 1, 3))
def test_mirror_is_computed_and_equality_reads_the_coefficients(n):
    # the mirror is derived from the coefficients, never stored: the one
    # field is coeffs, so equality and hashing read nothing else
    p = closed_form_P(n)
    assert [f.name for f in fields(DrinfeldPoly)] == ["coeffs"]
    assert p.mirror == _mirror(p.coeffs, p.degree)
    q = DrinfeldPoly(tuple(c + ZERO for c in p.coeffs))
    assert q == p and hash(q) == hash(p) and q.mirror == p.mirror
    assert DrinfeldPoly(p.coeffs + (ONE,)) != p


def test_reconstruct_v1():
    mod = _module(1)
    p = reconstruct_P(extract_hw_series(mod, 4))
    assert p == closed_form_P(1)
    assert p.degree == 1


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("shift", (False, True))
def test_reconstruct_matches_closed_form(n, shift):
    mod = _module(n, shift)
    p = reconstruct_P(extract_hw_series(mod, 2 * n + 2))
    assert p == closed_form_P(n, shift)
    assert p.degree == n


# reconstruct_P divides each coefficient by r^n (s^k - r^k), which the field
# does by one exact division, with no gcd, when that divides it as a Laurent
# polynomial, and by its gcd path otherwise: P with a root that is not
# Laurent still comes back.
def test_reconstruct_divides_exactly_or_falls_back(monkeypatch):
    import rsaffine.field as field

    def no_gcd(*args):
        raise AssertionError("reconstruct_P took a gcd")

    for p, exact in (
        (closed_form_P(3), True),
        (DrinfeldPoly(tuple(_poly_from_roots([A / (1 + R), A * S, B]))), False),
    ):
        h = HwSeries(plus=plus_series_of(p, 7), minus=minus_series_of(p, 7), n=3)
        if exact:
            monkeypatch.setattr(field, "pgcd", no_gcd)
        assert reconstruct_P(h) == p
        monkeypatch.undo()


# reconstruct_P checks P on the reduced form N/D of a series geometric from
# z^1 by the polynomial identity num D == den N (reduced-form lemma, drinfeld
# docstring), and by expanding num/den otherwise.  plus_series_of and
# minus_series_of stay the oracle: every outcome is the expansion path's, a
# returned P expands to the stored series on both sides, and only a proved
# identity skips the expansion.
def _outcome(h):
    try:
        return reconstruct_P(h)
    except (NoSolution, MirrorMismatch) as exc:
        return type(exc), str(exc)


def _outcomes(h, monkeypatch):
    """(outcome, expand calls) of reconstruct_P, then the outcome of the
    expansion path, with the reduced form refused."""
    import rsaffine.drinfeld as drinfeld

    calls = []
    with monkeypatch.context() as m:
        m.setattr(drinfeld, "expand", lambda *args: calls.append(args) or expand(*args))
        got = _outcome(h)
    with monkeypatch.context() as m:
        m.setattr(drinfeld, "_geometric_ratio", lambda cs: None)
        want = _outcome(h)
    return got, len(calls), want


@pytest.mark.parametrize("shift", (False, True))
@pytest.mark.parametrize("n", range(8))
def test_reduced_form_agrees_with_the_expansion(n, shift, monkeypatch):
    mod = build_series_eval(n, shift, 16)
    for order in range(2 * n + 1, 17):
        h = extract_hw_series(mod, order)
        got, expands, want = _outcomes(h, monkeypatch)
        assert got == want == closed_form_P(n, shift)
        assert plus_series_of(got, order) == h.plus
        assert minus_series_of(got, order) == h.minus
        # n = 0: the series 1, 0, 0, ... is not geometric from z^1
        assert expands == (2 if n == 0 else 0)


def _scaled_from_z1(cs):
    return cs[:1] + tuple(2 * c for c in cs[1:])


@pytest.mark.parametrize(
    "case,outcome",
    (
        ("plus scaled", NoSolution),
        ("minus scaled", MirrorMismatch),
        ("roots that do not telescope", DrinfeldPoly),
    ),
)
def test_unproved_series_take_the_expansion(case, outcome, monkeypatch):
    # scaling c_1..c_order by 2 keeps a series geometric from z^1 with the
    # same ratio, but no P of the presented degree satisfies the identity; a
    # P whose roots a, b do not telescope has a plus series of degree two
    # over degree two, which is not geometric
    if case == "roots that do not telescope":
        p, order = DrinfeldPoly(tuple(_poly_from_roots([A, B]))), 7
        h = HwSeries(plus=plus_series_of(p, order), minus=minus_series_of(p, order), n=2)
    else:
        h = extract_hw_series(build_series_eval(3, False, 8), 8)
        side = "plus" if case == "plus scaled" else "minus"
        h = HwSeries(**{"plus": h.plus, "minus": h.minus, side: _scaled_from_z1(getattr(h, side))}, n=3)
    got, expands, want = _outcomes(h, monkeypatch)
    assert got == want
    assert expands >= 1
    if outcome is DrinfeldPoly:
        assert got == p
    else:
        assert got[0] is outcome


def test_plus_series_resummation():
    # the displayed resummation r^n (1 - a r^-1 s r^-n z)/(1 - a r^-1 s s^-n z)
    for n in range(1, 5):
        p = closed_form_P(n)
        got = plus_series_of(p, 2 * n + 2)
        g = A * R**-1 * S
        num = TruncSeries(2 * n + 2, [ONE, -g * R**-n])
        den = TruncSeries(2 * n + 2, [ONE, -g * S**-n])
        assert got == (num * den.inv() * R**n).coeffs


def test_poly_text_skips_zero_and_unit_coefficients():
    assert poly_text((ONE, ZERO, ONE)) == "1 + z^2"


def test_reconstruct_rejects_bad_constant():
    bad = HwSeries(
        plus=(R + S,) + (ZERO,) * 5,
        minus=(S,) + (ZERO,) * 5,
        n=1,
    )
    with pytest.raises(NoSolution):
        reconstruct_P(bad)


def test_reconstruct_rejects_non_drinfeld_series():
    mod = _module(1)
    h = extract_hw_series(mod, 4)
    coeffs = list(h.plus)
    coeffs[3] = coeffs[3] + ONE  # corrupt one high coefficient
    bad = HwSeries(plus=tuple(coeffs), minus=h.minus, n=1)
    with pytest.raises(NoSolution):
        reconstruct_P(bad)


def test_reconstruct_flags_mirror_mismatch():
    mod = _module(1)
    h = extract_hw_series(mod, 4)
    coeffs = list(h.minus)
    coeffs[2] = coeffs[2] * (R * S)
    bad = HwSeries(plus=h.plus, minus=tuple(coeffs), n=1)
    with pytest.raises(MirrorMismatch):
        reconstruct_P(bad)


def test_reconstruct_rejects_a_polynomial_below_the_presented_degree():
    # r^2 P(sz)/P(rz) with P = 1 - a z solves at n = 2 with c_2 = 0 and
    # passes the plus check; P's degree is 1, so the series is not of the form
    p = DrinfeldPoly((ONE, -A))
    plus = tuple(R * c for c in plus_series_of(p, 6))
    minus = tuple(R * c for c in minus_series_of(p, 6))
    with pytest.raises(NoSolution):
        reconstruct_P(HwSeries(plus=plus, minus=minus, n=2))


def test_short_series_rejected():
    mod = _module(2)
    h = extract_hw_series(mod, 3)
    with pytest.raises(NoSolution):
        reconstruct_P(HwSeries(plus=h.plus[:4], minus=h.minus[:4], n=2))


# -- per-weight generating functions ----------------------------------------------


def test_weight_zero_equals_hw_series():
    mod = _module(2, shift=True)
    h = extract_hw_series(mod, 4)
    plus, minus = weight_gamma_series(mod, 0, 4)
    assert plus == h.plus
    assert minus == h.minus


def test_weight_index_bounds():
    mod = _module(1)
    with pytest.raises(IndexOutOfRange):
        weight_gamma_series(mod, 5, 3)


@pytest.mark.parametrize(
    "read",
    (
        lambda mod: weight_gamma_series(mod, 0, 3),
        lambda mod: verify_RQ_form(mod, order=3),
        lambda mod: extract_hw_series(mod, 3),
    ),
    ids=("weight_gamma_series", "verify_RQ_form", "extract_hw_series"),
)
def test_non_diagonal_stored_series_generator_is_rejected(read):
    # the readers take eigenvalues from the diagonal, so a stored w(1) with an
    # off-diagonal entry must be refused, not read as if v_i were eigenvectors
    mod = build_current_eval(2, True, kmax=2, lmax=1)
    bad = mod.with_assign(Wser(1, 1), mod.get(Wser(1, 1)) + mod.get(Xp(1, 0)))
    with pytest.raises(NotEigenvector):
        read(bad)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_omega_eigenvalue_on_weight_spaces(n):
    # w(k).v_i = (r-s) a^k s^-nk rho^-ki rho^k (rho^-k [i+1][n-i] - [n+1-i][i]) v_i
    # on the rs^-1-shifted module
    mod = build_current_eval(n, True, kmax=3, lmax=1)
    for i in range(n + 1):
        plus, _ = weight_gamma_series(mod, i, 3)
        for k in range(1, 4):
            want = (
                (R - S)
                * A**k
                * S ** (-n * k)
                * RHO ** (-k * i)
                * RHO**k
                * (
                    RHO**-k * quantum_int(i + 1) * quantum_int(n - i)
                    - quantum_int(n + 1 - i) * quantum_int(i)
                )
            )
            assert plus[k] == want


@pytest.mark.parametrize("n", (1, 2))
def test_four_factor_closed_form(n):
    # plus series on v_i collapses to
    # r^(n-i) s^i (1-a r s^-n-1 u)(1-a r^-n u) / ((1-a r^-i s^(i-n) u)(1-a r^(1-i) s^(i-n-1) u))
    order = 6
    mod = build_current_eval(n, True, kmax=3, lmax=1)
    for i in range(n + 1):
        plus, _ = weight_gamma_series(mod, i, order)
        num = TruncSeries(order, [ONE, -A * R * S ** (-n - 1)]) * TruncSeries(
            order, [ONE, -A * R**-n]
        )
        den = TruncSeries(order, [ONE, -A * R**-i * S ** (i - n)]) * TruncSeries(
            order, [ONE, -A * R ** (1 - i) * S ** (i - n - 1)]
        )
        assert plus == (num * den.inv() * (R ** (n - i) * S**i)).coeffs


@pytest.mark.parametrize("n", (1, 2, 3))
def test_verify_rq_form(n):
    mod = build_current_eval(n, True, kmax=3, lmax=1)
    rep = verify_RQ_form(mod, order=6)
    assert rep["all_pass"]
    assert [e["i"] for e in rep["per_weight"]] == list(range(n + 1))


def test_rq_prefactor_reads_the_factor_degrees(monkeypatch):
    # with one Q factor dropped, deg Q = 2i - 1 and the printed prefactor
    # r^(deg R - deg Q/2) s^(deg Q/2) no longer reads r^(n-i) s^i
    import rsaffine.drinfeld as drinfeld

    rq_polynomials = drinfeld.rq_polynomials

    def dropped(n, i):
        rfac, qfac = rq_polynomials(n, i)
        return rfac, qfac[:-1]

    mod = build_current_eval(2, True, kmax=2, lmax=1)
    assert all(e["prefactor_consistent"] for e in verify_RQ_form(mod, order=4)["per_weight"])
    monkeypatch.setattr(drinfeld, "rq_polynomials", dropped)
    rep = verify_RQ_form(mod, order=4)
    assert [e["prefactor_consistent"] for e in rep["per_weight"]] == [True, False, False]
    assert not rep["all_pass"]


@pytest.mark.parametrize(
    "side,checks",
    (
        ("plus", {"plus": "fail: plus series is not of Drinfeld polynomial form", "minus": "skipped"}),
        ("minus", {"plus": "pass", "minus": "fail: minus series fails the mirrored identity"}),
    ),
    ids=("plus", "minus"),
)
def test_report_of_a_series_off_the_polynomial_form(monkeypatch, side, checks):
    # the weight-0 series changed in its last coefficient: the failing side
    # is reported, nothing is matched, and P, Q fall back to the closed form
    import rsaffine.drinfeld as drinfeld

    weight_gamma_series = drinfeld.weight_gamma_series

    def corrupted(mod, i, order):
        plus, minus = weight_gamma_series(mod, i, order)
        if side == "plus":
            plus = plus[:-1] + (plus[-1] + ONE,)
        else:
            minus = minus[:-1] + (minus[-1] + ONE,)
        return plus, minus

    monkeypatch.setattr(drinfeld, "weight_gamma_series", corrupted)
    for n in (1, 3):
        rep = drinfeld_report(n, order=2 * n + 2)
        assert rep["checks"] == {**checks, "matches_closed_form": False}
        closed = closed_form_P(n)
        assert (rep["P"], rep["Q"]) == (closed.text(), closed.mirror_text())


def test_library_order_lower_bounds():
    # an order the reconstruction cannot use is a usage error, as in the
    # CLI, not a mathematical failure in the report
    with pytest.raises(ValueError, match="2n\\+1 = 5"):
        drinfeld_report(2, order=4)
    with pytest.raises(ValueError):
        drinfeld_report(0, order=0)
    assert drinfeld_report(2, order=5)["checks"]["plus"] == "pass"
    assert drinfeld_report(0, order=1)["checks"]["plus"] == "pass"
    # order 0 would compare no coefficient and report a vacuous pass
    mod = build_current_eval(1, True, kmax=1, lmax=1)
    with pytest.raises(ValueError):
        verify_RQ_form(mod, order=0)
    rep = verify_RQ_form(mod, order=1)
    assert rep["all_pass"] and rep["order"] == 1


def rq_closed_series(n, i, order):
    # the closed form r^(n-i) s^i R(us) Q(ur) / (R(ur) Q(us)) in lowest terms,
    # expanded as the RQ check expands it
    return _expand_rq(n, i, order, *rq_polynomials(n, i))


def _unreduced_rq_closed_series(n, i, order):
    # the closed form expanded with every linear factor of both sides
    rfac, qfac = rq_polynomials(n, i)
    num = _poly_from_roots([S * p for p in rfac] + [R * p for p in qfac])
    den = _poly_from_roots([R * p for p in rfac] + [S * p for p in qfac])
    scale = R ** (n - i) * S**i
    return tuple(c * scale for c in expand(num, den, order))


@pytest.mark.parametrize("n", range(8))
def test_reduced_rq_closed_form_matches_the_unreduced_expansion(n, monkeypatch):
    import rsaffine.drinfeld as drinfeld

    degrees = []

    def recording(params):
        coeffs = _poly_from_roots(params)
        degrees.append(len(coeffs) - 1)
        return coeffs

    monkeypatch.setattr(drinfeld, "_poly_from_roots", recording)
    for i in range(n + 1):
        for order in (1, 6, 3 * n + 1):
            assert rq_closed_series(n, i, order) == _unreduced_rq_closed_series(n, i, order)
    # the reduced numerator and denominator of every weight
    assert len(degrees) == 2 * 3 * (n + 1)
    assert max(degrees) <= 2


def _factor_series(params, scale, order):
    # prod (1 - p*scale*u) as a product of linear series
    out = TruncSeries(order, [ONE])
    for p in params:
        out = out * TruncSeries(order, [ONE, -p * scale])
    return out


def test_rq_form_detects_dropped_factor():
    # dropping one factor from Q must surface a nonzero residual at u^1
    got = rq_closed_series(2, 1, 4)
    rfac, qfac = rq_polynomials(2, 1)

    def closed(qfac):
        num = _factor_series(rfac, S, 4) * _factor_series(qfac, R, 4)
        den = _factor_series(rfac, R, 4) * _factor_series(qfac, S, 4)
        return (num / den * (R * S)).coeffs

    assert closed(qfac) == got
    perturbed = closed(qfac[:-1])
    assert perturbed != got
    assert not (perturbed[1] - got[1]).is_zero()


# Polynomial products made by verify_RQ_form on the rs^-1-shifted n = 4
# module at order 12 (the module is built first and not counted).  The
# closed side cancels its common linear factors and expands two polynomials
# of degree at most 2 with one division recurrence; expanding all 3n
# factors made 2,202 calls, and expanding four factor series, multiplying
# them and inverting the denominator series made 2,952 calls and 75,441
# term products.  Multiplying the unit denominators of two Laurent
# coefficients made 992.  Negative powers and inverses of monomials through
# ONE / x, with two products each, made 637.  Dividing every expanded
# coefficient by a constant term of one, and multiplying it by r^(n-i) s^i,
# where that scalar is now folded into the numerator (drinfeld.expand),
# made 420.
RQ_N4_PMUL_CALLS = 303


def test_rq_pmul_count_tripwire(monkeypatch):
    import rsaffine._kernel as kernel

    mod = build_current_eval(4, True, kmax=6, lmax=1)
    calls = terms = 0
    pmul = kernel.pmul

    def counting(p, q):
        nonlocal calls, terms
        calls += 1
        terms += len(p) * len(q)
        return pmul(p, q)

    monkeypatch.setattr(kernel, "pmul", counting)
    assert verify_RQ_form(mod, order=12)["all_pass"]
    assert calls == RQ_N4_PMUL_CALLS
    assert terms < 75441


# -- multiplicativity (tensor-level series arithmetic) --------------------------------


def _independent_pair(n1, n2):
    p1 = closed_form_P(n1)
    p2 = DrinfeldPoly(coeffs=tuple(c.substitute(a=B) for c in closed_form_P(n2).coeffs))
    return p1, p2


def _series(coeffs):
    # a coefficient tuple as the oracle series of its order
    return TruncSeries(len(coeffs) - 1, coeffs)


@pytest.mark.parametrize("pair", ((1, 1), (1, 2)))
def test_plus_series_multiplicativity(pair):
    n1, n2 = pair
    order = 2 * (n1 + n2) + 2
    p1, p2 = _independent_pair(n1, n2)
    prod_series = _series(plus_series_of(p1, order)) * _series(plus_series_of(p2, order))

    # coefficients of the product polynomial (P1 P2)(z)
    coeffs = [ZERO] * (n1 + n2 + 1)
    for i, c1 in enumerate(p1.coeffs):
        for j, c2 in enumerate(p2.coeffs):
            coeffs[i + j] = coeffs[i + j] + c1 * c2
    p12 = DrinfeldPoly(coeffs=tuple(coeffs))
    assert prod_series.coeffs == plus_series_of(p12, order)


def test_minus_series_multiplies_mirrors_not_the_total_twist():
    # each factor's descending series carries its own (rs)^deg twist, so the
    # product of minus series matches the product of the two mirrors, which
    # differs from the single (rs)^(deg P1 P2) twist of the product polynomial
    order = 6
    p1, p2 = _independent_pair(1, 1)
    prod_series = _series(minus_series_of(p1, order)) * _series(minus_series_of(p2, order))

    q_coeffs = [ZERO] * 3
    for i, c1 in enumerate(p1.mirror):
        for j, c2 in enumerate(p2.mirror):
            q_coeffs[i + j] = q_coeffs[i + j] + c1 * c2
    # reuse the expansion helper by planting the product of mirrors directly
    num = TruncSeries(order, list(reversed([c * S**k for k, c in enumerate(q_coeffs)])))
    den = TruncSeries(order, list(reversed([c * R**k for k, c in enumerate(q_coeffs)])))
    assert prod_series == num * den.inv() * R**2

    coeffs = [ZERO] * 3
    for i, c1 in enumerate(p1.coeffs):
        for j, c2 in enumerate(p2.coeffs):
            coeffs[i + j] = coeffs[i + j] + c1 * c2
    rs2 = (R * S) ** 2
    total_twist = DrinfeldPoly(coeffs=tuple(coeffs))
    assert total_twist.mirror == tuple(c * rs2**k for k, c in enumerate(coeffs))
    assert prod_series.coeffs != minus_series_of(total_twist, order)
