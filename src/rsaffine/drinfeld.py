"""Highest-weight eigenvalue series and the polynomial pair that encodes them.

The ascending eigenvalue series of the w(m) generators on the highest-weight
line determines a unique monic-at-1 polynomial P with

    sum_k c_k z^k  =  r^deg(P) * P(s z) / P(r z)      (expansion about 0),

and the descending primed series satisfies the mirrored identity with
Q(z) = P((rs)^deg(P) z) expanded about infinity.  Reconstruction solves the
triangular linear system the identity imposes and then verifies every
remaining coefficient, so a non-Drinfeld series is rejected, not fitted.

The per-weight closed form r^(n-i) s^i R(us) Q(ur) / (R(ur) Q(us)) is in
lowest terms a ratio of two polynomials of degree at most 2.  With
p_j = a r^-j s^(j-n-1), R has the parameters p_1..p_n and Q the pairs
(p_j, p_(j-1)) for j = 1..i; since r p_(j+1) = s p_j the factors telescope,
and for 0 <= i <= n

    R(us) Q(ur) / (R(ur) Q(us))  =  (1 - r p_0 u)(1 - r p_(n+1) u)
                                    / ((1 - r p_i u)(1 - r p_(i+1) u)),

where one more factor cancels when i = 0 or i = n.  Both sides have
constant term 1, so the reduced ratio expands to the same truncated series
as the unreduced one.

A truncated series is the tuple of its coefficients c_0..c_order, its
order being len - 1.  expand is the one expansion of a polynomial ratio,
the division recurrence; the expansion about infinity of the primed
series is expand on the reversed coefficient lists.

Reduced-form lemma.  Let c_0..c_order be geometric from z^1, c_(k+1) =
lam c_k for 1 <= k < order.  They are then the expansion to order of
N/D = (c_0 + (c_1 - lam c_0) z)/(1 - lam z).  For coefficient lists num,
den with den_0 != 0, num/den = N/D as rational functions exactly when
num D = den N, a polynomial identity of degree max(deg num, deg den) + 1,
and then the two expansions agree at every order, so expand(num, den,
order) = c (Chari and Pressley, CMP 142, 1991, for the rational form;
von zur Gathen and Gerhard, 5.9, for uniqueness).  For P of degree n >= 1
with the closed form's roots, r^n P(sz)/P(rz) telescopes to degree one
over degree one, as the per-weight ratio above does, and so does the
mirrored primed series in z^-1: both are geometric from z^1.  reconstruct_P
reads lam off c_2/c_1 (monomial_quotient) and confirms it on every stored
coefficient.  Only a proved identity decides a match; a series that is not
geometric (n = 0, where c_1 = 0) or whose identity fails (two ratios may
agree to a finite order) is compared with its expansion.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import IndexOutOfRange, MirrorMismatch, NoSolution
from .field import A, ONE, R, S, ZERO, monomial_quotient, render
from .rep_core import MatrixModule
from .sl2 import build_series_eval, series_matrices, shift_factor


@dataclass(frozen=True)
class HwSeries:
    """Eigenvalue series of the series generators on the highest-weight line."""

    plus: tuple  # ascending: eigenvalue of w(k) as coefficient of z^k
    minus: tuple  # descending: eigenvalue of w'(-k) as coefficient of z^-k
    n: int


@dataclass(frozen=True)
class DrinfeldPoly:
    """P(z) with constant term 1; its degree and mirror Q(z) = P((rs)^deg z) are computed."""

    coeffs: tuple  # c_0 .. c_deg, c_0 = 1

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def mirror(self) -> tuple:
        return _mirror(self.coeffs, self.degree)

    def text(self) -> str:
        return poly_text(self.coeffs)

    def mirror_text(self) -> str:
        return poly_text(self.mirror)


def poly_text(coeffs) -> str:
    parts = []
    for k, c in enumerate(coeffs):
        if c.is_zero():
            continue
        mono = "1" if k == 0 else ("z" if k == 1 else f"z^{k}")
        if k == 0:
            parts.append(render(c))
        elif c.is_one():
            parts.append(f" + {mono}")
        else:
            parts.append(f" + ({render(c)})*{mono}")
    return "".join(parts) if parts else "0"


def _mirror(coeffs, n: int):
    rs_n = (R * S) ** n
    return tuple(c * rs_n**k for k, c in enumerate(coeffs))


def extract_hw_series(mod: MatrixModule, order: int) -> HwSeries:
    """Eigenvalues of w(k) and w'(-k) on the highest-weight basis vector."""
    plus, minus = weight_gamma_series(mod, 0, order)
    return HwSeries(plus=plus, minus=minus, n=mod.dim - 1)


def closed_form_P(n: int, use_shift=False) -> DrinfeldPoly:
    """Product form prod_{k=1..n} (1 - a' (r^-1 s)^k r^-1 s^-n z), a' = shift*a."""
    ap = shift_factor(use_shift) * A
    coeffs = tuple(_poly_from_roots(ap * (R**-1 * S) ** k * R**-1 * S**-n for k in range(1, n + 1)))
    return DrinfeldPoly(coeffs)


def expand(num, den, order: int) -> tuple:
    """Coefficients 0..order of the power series num/den, for coefficient
    lists with den[0] != 0, by the division recurrence
    q_k = (num_k - sum_{j>=1} den_j q_(k-j)) / den_0 (Knuth, TAOCP vol. 2,
    4.7).  Zero den_j and zero q_(k-j) are skipped, no coefficient past
    order is read, and there is no division when den_0 is one.

    The recurrence is linear in num, so expand(c num) = c expand(num): a
    caller folds a scalar c into num, one product per coefficient of num
    instead of one per coefficient of the expansion."""
    d0 = None if den[0].is_one() else den[0]
    terms = [(j, d) for j, d in enumerate(den[1 : order + 1], 1) if not d.is_zero()]
    out = []
    for k in range(order + 1):
        acc = num[k] if k < len(num) else ZERO
        for j, d in terms:
            if j > k:
                break
            if not out[k - j].is_zero():
                acc = acc - d * out[k - j]
        out.append(acc if d0 is None else acc / d0)
    return tuple(out)


def _plus_ratio(p: DrinfeldPoly):
    """num, den of r^deg * P(sz)/P(rz) as coefficient lists."""
    scale = R**p.degree
    num = [c * (scale * S**k) for k, c in enumerate(p.coeffs)]
    den = [c * R**k for k, c in enumerate(p.coeffs)]
    return num, den


def _minus_ratio(p: DrinfeldPoly):
    """num, den of r^deg * Q(sz)/Q(rz), Q the mirror, as coefficient lists
    in z^-1: the reversed lists of the ratio in z."""
    scale, q = R**p.degree, p.mirror
    num = [c * (scale * S**k) for k, c in enumerate(q)]
    den = [c * R**k for k, c in enumerate(q)]
    return num[::-1], den[::-1]


def plus_series_of(p: DrinfeldPoly, order: int) -> tuple:
    """r^deg * P(sz)/P(rz) expanded about 0."""
    return expand(*_plus_ratio(p), order)


def minus_series_of(p: DrinfeldPoly, order: int) -> tuple:
    """r^deg * Q(sz)/Q(rz) expanded about infinity, Q the mirror: the
    coefficient of z^-k is at index k."""
    return expand(*_minus_ratio(p), order)


def _geometric_ratio(cs):
    """The monomial lam with c_(k+1) = lam c_k for 1 <= k < order, or None
    when cs has order below 2 or is not geometric from z^1."""
    if len(cs) < 3:
        return None
    lam = monomial_quotient(cs[2], cs[1])
    if lam is None or any(cs[k] * lam != cs[k + 1] for k in range(2, len(cs) - 1)):
        return None
    return lam


def _agrees(num, den, cs) -> bool:
    """Whether num/den expands to the truncated series cs: by the identity
    num D == den N on the reduced form N/D of cs when cs is geometric from
    z^1 and the identity holds, else by the expansion (reduced-form lemma,
    module docstring)."""
    lam = _geometric_ratio(cs)
    if lam is not None:
        n0, n1 = cs[0], cs[1] - lam * cs[0]
        width = max(len(num), len(den)) + 1
        a = [*num, *[ZERO] * (width - len(num))]
        b = [*den, *[ZERO] * (width - len(den))]
        # coefficient k of num (1 - lam z) == den (n0 + n1 z), with a_-1 = b_-1 = 0
        if all(x - lam * y == n0 * u + n1 * v for x, y, u, v in zip(a, [ZERO, *a], b, [ZERO, *b])):
            return True
    return expand(num, den, len(cs) - 1) == cs


def reconstruct_P(h: HwSeries) -> DrinfeldPoly:
    """Solve r^n P(sz) = P(rz) * plus-series for the n unknown coefficients,
    verify the remaining orders, then verify the minus-series mirror law.

    Each verification is the polynomial identity of the reduced-form lemma
    (module docstring) when the stored series is geometric from z^1 and
    the identity holds, and the expansion of the ratio (plus_series_of,
    minus_series_of) compared with the stored series otherwise.

    Raises NoSolution when the plus series is not of polynomial-ratio shape
    and MirrorMismatch when the plus side solves but the minus side fails.
    """
    n = h.n
    order = len(h.plus) - 1
    if order < 2 * n + 1:
        raise NoSolution(f"need plus series to order {2 * n + 1}, have {order}")
    phi = h.plus
    if phi[0] != R**n:
        raise NoSolution("constant term is not r^n")

    # triangular solve: coefficient of z^k in r^n P(sz) - P(rz)*phi = 0
    coeffs = [ONE] + [ZERO] * n
    for k in range(1, n + 1):
        acc = ZERO
        for j in range(k):
            acc = acc + coeffs[j] * R**j * phi[k - j]
        coeffs[k] = acc / (R**n * (S**k - R**k))
    if coeffs[n].is_zero():
        raise NoSolution(f"solved polynomial has degree below {n}")
    p = DrinfeldPoly(tuple(coeffs))

    if not _agrees(*_plus_ratio(p), phi):
        raise NoSolution("plus series is not of Drinfeld polynomial form")
    if not _agrees(*_minus_ratio(p), h.minus):
        raise MirrorMismatch("minus series fails the mirrored identity")
    return p


def weight_gamma_series(mod: MatrixModule, i: int, order: int):
    """Eigenvalue generating functions of w(m), w'(-m) on the basis vector
    v_i: (ascending plus, descending minus)."""
    if not (0 <= i < mod.dim):
        raise IndexOutOfRange(f"weight index {i} outside 0..{mod.dim - 1}")
    ws, wps = series_matrices(mod, order)
    return tuple(w[i, i] for w in ws), tuple(w[i, i] for w in wps)


def rq_polynomials(n: int, i: int):
    """The two factor lists (R, Q) in the per-weight closed form, as
    linear-factor parameter lists: R over j = 1..n, Q doubled over j = 1..i."""
    rfac = [A * R**-j * S ** (j - n - 1) for j in range(1, n + 1)]
    qfac = []
    for j in range(1, i + 1):
        qfac.append(A * R**-j * S ** (j - n - 1))
        qfac.append(A * R ** (1 - j) * S ** (j - n - 2))
    return rfac, qfac


def _poly_from_roots(params):
    coeffs = [ONE]
    for rt in params:
        nxt = [ZERO] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j] = nxt[j] + c
            nxt[j + 1] = nxt[j + 1] - c * rt
        coeffs = nxt
    return coeffs


def _expand_rq(n: int, i: int, order: int, rfac, qfac) -> tuple:
    num = Counter([S * p for p in rfac] + [R * p for p in qfac])
    den = Counter([R * p for p in rfac] + [S * p for p in qfac])
    num, den = _poly_from_roots((num - den).elements()), _poly_from_roots((den - num).elements())
    scale = R ** (n - i) * S**i
    return expand([c * scale for c in num], den, order)


def verify_RQ_form(mod: MatrixModule, order: int) -> dict:
    """Per-weight check of the closed-form eigenvalue generating function.

    The module must carry the rs^-1 shift (the closed form is stated for
    that normalization).  Also asserts the two prefactor readings agree:
    r^(deg R - deg Q/2) s^(deg Q/2) == r^(n-i) s^i, with deg R and deg Q
    read from the factor lists of rq_polynomials (they are n and 2i).
    Failures are report content, never exceptions; an order below 1, which
    would compare no coefficient, raises ValueError.
    """
    if order < 1:
        raise ValueError(f"verify_RQ_form needs order >= 1, got {order}")
    n = mod.dim - 1
    ws, _ = series_matrices(mod, order)
    results = []
    for i in range(n + 1):
        plus = tuple(w[i, i] for w in ws)
        rfac, qfac = rq_polynomials(n, i)
        want = _expand_rq(n, i, order, rfac, qfac)
        degR, degQ = len(rfac), len(qfac)
        pref_printed = R ** (degR - degQ // 2) * S ** (degQ // 2)
        pref_proof = R ** (n - i) * S**i
        entry = {
            "i": i,
            "pass": plus == want,
            "prefactor_consistent": pref_printed == pref_proof,
        }
        if not entry["pass"]:
            entry["residual"] = [render(a - b) for a, b in zip(plus, want)]
        results.append(entry)
    return {
        "n": n,
        "order": order,
        "all_pass": all(e["pass"] and e["prefactor_consistent"] for e in results),
        "per_weight": results,
    }


def drinfeld_report(n: int, use_shift=False, *, order: int, mod=None) -> dict:
    """Reconstruction vs closed form plus the mirror law, JSON-ready.

    The reconstruction reads the plus series to order 2n+1, so a smaller
    order raises ValueError (the CLI rejects it as a usage error).  mod is
    the module read, build_series_eval(n, use_shift, order) when None: only
    the series to order are read, so no current and no a(l) is built.  When
    the series is not of Drinfeld form the failing side is reported and P, Q
    are the closed form.
    """
    if order < 2 * n + 1:
        raise ValueError(f"drinfeld_report needs order >= 2n+1 = {2 * n + 1} for n={n}, got {order}")
    if mod is None:
        mod = build_series_eval(n, use_shift, order)
    h = extract_hw_series(mod, order)
    closed = closed_form_P(n, use_shift)
    status = {"plus": "pass", "minus": "pass"}
    matches = False
    p = None
    try:
        p = reconstruct_P(h)
        matches = p == closed
    except NoSolution as exc:
        status["plus"] = f"fail: {exc}"
        status["minus"] = "skipped"
    except MirrorMismatch as exc:
        status["minus"] = f"fail: {exc}"
    return {
        "n": n,
        "shift": "rs_inverse" if use_shift else "plain",
        "P": (p or closed).text(),
        "Q": (p or closed).mirror_text(),
        "checks": {
            "plus": status["plus"],
            "minus": status["minus"],
            "matches_closed_form": matches,
        },
    }
