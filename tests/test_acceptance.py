"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Every check is exact (tolerance zero); the only numeric budgets are the two
wall-clock guards.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time
from pathlib import Path

import pytest
from test_specialize import specialize_table
from truncseries import TruncSeries
from twists import twist_gamma1, twist_gamma2

from rsaffine.cartan import build_pairing, parse_type, table_to_json
from rsaffine.drinfeld import (
    closed_form_P,
    extract_hw_series,
    plus_series_of,
    reconstruct_P,
    verify_RQ_form,
)
from rsaffine.field import A, B, ONE, R, S, ZERO, quantum_int
from rsaffine.hopf import span_closure, tensor, tensor_basis_vector, twist_sigma
from rsaffine.matrix import Matrix
from rsaffine.rep_core import (
    E,
    MatrixModule,
    W,
    Xm,
    Xp,
    all_pass,
    check_chevalley,
    check_drinfeld,
)
from rsaffine.sl2 import build_chevalley_eval, build_current_eval
from rsaffine.specialize import SpecMap, centrality_report, specialize_module

GOLDEN_TABLES = Path(__file__).parent / "golden" / "tables.json"

ALL_TYPES = (
    ["A1"]
    + [f"A{n}" for n in range(2, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "F4", "G2"]
)


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_relation_suite():
    t0 = time.monotonic()
    failures = []
    for n in (0, 1, 2, 3):
        for shift in (False, True):
            chev = build_chevalley_eval(n, shift)
            if not all_pass(check_chevalley(chev)):
                failures.append(f"chevalley n={n} shift={shift}")
            mod = build_current_eval(n, shift, kmax=4, lmax=3)
            if not all_pass(check_drinfeld(mod, kmax=4, lmax=3)):
                failures.append(f"drinfeld n={n} shift={shift}")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    _report(
        1,
        ok,
        f"relation suites n<=3, both shifts, kmax=4, lmax=3: "
        f"{'zero failures' if not failures else failures}, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_drinfeld_polynomials():
    bad = []
    for n in range(6):
        for shift in (False, True):
            order = 2 * n + 2
            mod = build_current_eval(n, shift, kmax=max(1, (order + 1) // 2), lmax=1)
            h = extract_hw_series(mod, order)
            try:
                p = reconstruct_P(h)  # verifies plus and minus/mirror identities
            except Exception as exc:
                bad.append(f"n={n} shift={shift}: {exc}")
                continue
            if p != closed_form_P(n, shift):
                bad.append(f"n={n} shift={shift}: closed-form mismatch")
    # the printed eigenvalue formula and the displayed resummation, plain shift
    for n in range(6):
        mod = build_current_eval(n, False, kmax=n + 1, lmax=1)
        h = extract_hw_series(mod, min(2 * n + 2, 2 * (n + 1)))
        for k in range(1, len(h.plus)):
            want = (R - S) * (A * R**-1 * S ** (1 - n)) ** k * quantum_int(n)
            if h.plus[k] != want:
                bad.append(f"Phi+ formula fails at n={n}, k={k}")
                break
        g = A * R**-1 * S
        order = len(h.plus) - 1
        resummed = (
            TruncSeries(order, [ONE, -g * R**-n])
            * TruncSeries(order, [ONE, -g * S**-n]).inv()
            * R**n
        )
        if resummed.coeffs != h.plus:
            bad.append(f"resummation fails at n={n}")
    _report(2, not bad, f"P reconstruction/mirror/eigenvalue formulas n<=5: {bad or 'exact'}")


def test_criterion_3_weight_generating_functions():
    t0 = time.monotonic()
    bad = []
    for n in (1, 2, 3):
        mod = build_current_eval(n, True, kmax=3, lmax=1)
        rep = verify_RQ_form(mod, order=6)
        for entry in rep["per_weight"]:
            if not (entry["pass"] and entry["prefactor_consistent"]):
                bad.append(f"n={n} i={entry['i']}")
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 30.0
    _report(
        3,
        ok,
        f"per-weight closed forms n in {{1,2,3}}, order 6, prefactor included: "
        f"{bad or 'exact'}, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_4_cartan_tables():
    golden = json.loads(GOLDEN_TABLES.read_text())
    bad = []
    for name in ALL_TYPES:
        t = build_pairing(parse_type(name))
        for i in range(t.size):
            d = t.d[i]
            from rsaffine.field import RatFunc

            if t.entry(i, i) != RatFunc.monomial(1, d, -d, 0):
                bad.append(f"{name} diagonal at {i}")
        if table_to_json(t) != golden.get(name):
            bad.append(f"{name} drifted from golden file")
    a1 = build_pairing(parse_type("A1"))
    displayed = {
        "s_to_r_inverse": [[R**2, R**-2], [R**-2, R**2]],
        "s_to_r": [[ONE, ONE], [ONE, ONE]],
    }
    for kind, want in displayed.items():
        if specialize_table(a1, SpecMap(kind)) != want:
            bad.append(f"specialized table {kind}")
    q2 = S**2
    if specialize_table(a1, SpecMap("r_to_s_pow", 3)) != [[q2, q2**-1], [q2**-1, q2]]:
        bad.append("specialized table r=s^3")
    _report(
        4,
        not bad,
        f"{len(ALL_TYPES)} tables load, diagonal law, golden files, "
        f"3 specialized rank-1 matrices: {bad or 'exact'}",
    )


def test_criterion_5_equal_parameter_specialization():
    bad = []
    for n in range(1, 5):
        sp = specialize_module(build_chevalley_eval(n), SpecMap("s_to_r"))
        if centrality_report(sp)["failures"]:
            bad.append(f"centrality n={n}")
        if quantum_int(n).substitute(s=R) != n * R ** (n - 1):
            bad.append(f"[{n}] specialization")
        for i in range(n + 1):
            seed = [ONE if j == i else ZERO for j in range(n + 1)]
            if len(span_closure(sp, seed)) != n + 1:
                bad.append(f"span from v_{i}, n={n}")
    _report(5, not bad, f"s->r: centrality, [n]->n r^(n-1), full spans, n<=4: {bad or 'exact'}")


def test_criterion_6_tensor_and_multiplicativity():
    bad = []
    mL = build_chevalley_eval(1)
    mR = MatrixModule(
        mL.table,
        {
            g: Matrix([[x.substitute(a=B) for x in row] for row in mat.rows])
            for g, mat in build_chevalley_eval(1).assign.items()
        },
    )
    T = tensor(mL, mR)
    if not all_pass(check_chevalley(T)):
        bad.append("tensor relation suite")
    if len(span_closure(T, tensor_basis_vector(mL, mR, 0, 0))) != 4:
        bad.append("closure dimension")
    for n1, n2 in ((1, 1), (1, 2)):
        order = 2 * (n1 + n2) + 2
        p1 = closed_form_P(n1)
        p2c = tuple(c.substitute(a=B) for c in closed_form_P(n2).coeffs)
        # product polynomial P1*P2 and its plus series
        coeffs = [ZERO] * (n1 + n2 + 1)
        for i, c1 in enumerate(p1.coeffs):
            for j, c2 in enumerate(p2c):
                coeffs[i + j] = coeffs[i + j] + c1 * c2
        from rsaffine.drinfeld import DrinfeldPoly

        p2 = DrinfeldPoly(coeffs=p2c)
        p12 = DrinfeldPoly(coeffs=tuple(coeffs))
        lhs = TruncSeries(order, plus_series_of(p1, order)) * TruncSeries(order, plus_series_of(p2, order))
        if lhs.coeffs != plus_series_of(p12, order):
            bad.append(f"series multiplicativity ({n1},{n2})")
    _report(6, not bad, f"tensor suite, closure dim 4, multiplicativity: {bad or 'exact'}")


def test_criterion_7_twists():
    bad = []
    c = R**2 * S**-1
    for n in (0, 1, 2):
        for shift in (False, True):
            mod = build_current_eval(n, shift, kmax=2, lmax=2)
            tw2 = twist_gamma2(mod, c)
            tw1 = twist_gamma1(mod)
            for g, mat in mod.assign.items():
                if g.kind not in ("Xp", "Xm"):
                    continue
                scaled = Matrix([[x.substitute(a=c * A) for x in row] for row in mat.rows])
                flipped = Matrix([[x.substitute(a=-A) for x in row] for row in mat.rows])
                if tw2.get(g) != scaled:
                    bad.append(f"gamma2 entrywise n={n} {g}")
                    break
                if tw1.get(g) != flipped:
                    bad.append(f"gamma1 entrywise n={n} {g}")
                    break
            if not all_pass(check_drinfeld(tw2, 2, 2)):
                bad.append(f"gamma2 suite n={n} shift={shift}")
            if not all_pass(check_drinfeld(tw1, 2, 2)):
                bad.append(f"gamma1 suite n={n} shift={shift}")
    for signs in ((1, -1), (-1, 1), (-1, -1)):
        tws = twist_sigma(build_chevalley_eval(2), signs)
        if not all_pass(check_chevalley(tws)):
            bad.append(f"sigma suite {signs}")
    _report(7, not bad, f"gamma2 = a->c*a, gamma1 = a->-a, all twists keep suites: {bad or 'exact'}")


def test_criterion_8_mutation_sensitivity():
    caught = []
    mod = build_current_eval(2, kmax=2, lmax=2)
    chev = build_chevalley_eval(2)

    bad_curr = mod.with_assign(Xp(1, 1), Matrix.zeros(3))
    caught.append(not all_pass(check_drinfeld(bad_curr, 2, 2)))

    bad_chev = chev.with_assign(E(1), chev.get(E(1)).scale(2))
    caught.append(not all_pass(check_chevalley(bad_chev)))

    bad_curr2 = mod.with_assign(Xm(1, 0), mod.get(Xm(1, 0)).scale(R * S))
    caught.append(not all_pass(check_drinfeld(bad_curr2, 2, 2)))

    _report(8, all(caught), f"3 injected corruptions all caught: {caught}")
