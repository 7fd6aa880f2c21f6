"""Command-line surface: exit codes, JSON determinism, bounds, and injected
corruptions that the checks must catch."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mutations import MUTATIONS, mutate_cli

from rsaffine.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_passes(capsys):
    code, out = run(capsys, "verify", "--type", "A1", "--n", "2", "--kmax", "2", "--lmax", "2")
    assert code == EXIT_PASS
    assert "PASS" in out


def test_verify_bound_violation(capsys):
    code, _ = run(capsys, "verify", "--type", "A1", "--n", "13")
    assert code == EXIT_USAGE


def test_verify_kmax_bound(capsys):
    code, _ = run(capsys, "verify", "--type", "A1", "--n", "1", "--kmax", "9")
    assert code == EXIT_USAGE


# Polynomial products made by `verify --n 4 --json`.  The count is exact and
# machine independent, so a change that makes the relation check do more
# arithmetic fails here; a change that makes it do less updates the number.
# Two full products per commutator with a diagonal factor, and both sides of
# every D6 instance built anew, made 22,700.  Building each current entry
# from its own quantum integer and three monomial factors, not as the
# ladder entry times one power of its column's diagonal factor, made 16,332.
# Multiplying the unit denominators of two Laurent entries as well, and
# building the two sides of every unordered D6 pair, made 14,920.  Reading
# each current as x(0) D^k now decides D4 and D5 once per family and builds
# X(a)X(0), x+(k)x-(0) and x-(k2)x+(0) once per index; full products of the
# currents for every instance made 7,736.  D6 and D7 are now decided by the
# commutation identities of x(0) (rep_core docstring), with x(0)x(0) once per
# sign and one D7 verdict per m = k + k2; the per-index products, the
# anti-diagonal sums and a right side per D7 instance made 6,436.  The build
# then read a(l) off the log-derivative recurrence on diagonal entries; a
# series logarithm per weight, divided back by r - s, made 3,875.  Negative powers, inverses and quotients by a monomial through
# ONE / x, with two products each, where they now take the closed monomial
# form, made 2,897; scaling by 1, which now returns the matrix, 2,303; the
# D7 left side scaled by r - s once per m, where x+(0)x-(0) and x-(0)x+(0)
# are now scaled once, 2,202; and the D5 families built from products,
# where the verdict is now read off the diagonal entries of a(e) and K^-l,
# 2,126.  Scaling each w(m) by r - s, where r - s is now hoisted into x-(0)
# and x+(0) once (sl2 docstring), made 2,024; and each current x+-(k) as a
# fresh power of D per entry, where it is now the running product
# x+-(k -+ 1) D and x+-(0) is taken as it is, 1,982.  R2 and the D4 families
# are now decided by the conjugation lemma (rep_core docstring), one product
# g_a h_b per nonzero entry, and R4 reads w b w^-1 as a scalar times b; the
# sides of every R2 instance and D4 family by matrix products (R2 192, now
# 64; D4 48, now 16) and the conjugations of every R4 step (R4 186, now 184)
# made 1,974.  Each quantum integer of the ladder matrices summed from n
# products of powers of r and s, where its terms are now read off their
# exponents (field.quantum_int), made 1,812.  The build's w(m), w'(-m) and
# C(m), C'(m) as general commutators of the currents, where they are now
# read off the ladder, n running monomial products per m (sl2 docstring),
# made 1,772, and theta(l) built twice per l, once for D5_1 and once for
# D5_2, through a gcd each time, where it is now one exact division per l,
# 1,702.  R3 and R4 now compare E_i and F_i scaled by r - s (the scaling
# lemma, rep_core docstring): scaling them takes 18 products and R3 no longer
# scales its left sides (10), a net 8 more calls of far fewer terms.
# build_chevalley_eval inverting w and w' twice each, once per node, where
# each inverse is now formed once and stored at both nodes, made 1,537.
# Each R4 iterate testing w^-1 w = 1 by one product per diagonal entry, where
# the module's weight view (rep_core.Weights) now compares w^-1 with the
# inverse of w once per module (a monomial inverse takes no product), made
# 1,517; and the scaled Chevalley module re-reading the conjugation scalars
# that R2 had read on the module, which it now shares (c x has the support
# of x), 1,497.  The constructor of both modules multiplying out each
# group-like inverse pair and the gamma product (gh gh)(gph gph), where a
# pair in the weight view's inverse set (rep_core.Weights) now takes no
# product and identity gamma halves hold level zero with none, made 1,481;
# the same products in R1, 1,421; and in D1, 1,376.  Both builds inverting
# w and w' through Matrix.inverse, an echelon form with two products per
# entry, where each inverse is now taken entry by entry, made 1,341; and
# a(l) through the log-derivative recurrence, where each entry is now read
# off the telescoped per-weight form with no product (sl2 docstring), 1,301.
# The weight view multiplying the diagonal entries g_a h_b of each
# conjugation scalar, where the entries are now lattice points whose keys
# add (rep_core.Weights), made 1,077.  D4-D7 reading the current form by
# products made 981: current_form scaling every stored current's columns
# by D and confirming D by one product per column (90), K = w w' and
# K^-1 = w^-1 w'^-1 multiplied out before any relation read them (10), the
# D5 neighbour differences and their right sides t (K^-l)_ii D_j^e (145),
# D6's kappa and kappa D by products (12), and D7's column scalings by
# powers of D- and D+ with the scalings by c^m (255).  The form is now read
# as lattice points (rep_core docstring): shifts of numerators, with K^+-l
# multiplied out only for plain sides.
VERIFY_N4_PMUL_CALLS = 469


def test_verify_pmul_count_tripwire(capsys, monkeypatch):
    import rsaffine._kernel as kernel

    calls = 0
    pmul = kernel.pmul

    def counting(p, q):
        nonlocal calls
        calls += 1
        return pmul(p, q)

    monkeypatch.setattr(kernel, "pmul", counting)
    code, _ = run(capsys, "verify", "--n", "4", "--json")
    assert code == EXIT_PASS
    assert calls == VERIFY_N4_PMUL_CALLS


# Reductions to canonical form, RatFunc._normalize and RatFunc._canonical
# together (a _normalize call counts its own _canonical too), made by
# `verify --n 4 --json`; exact like the pmul count.  Full products for the
# commutators with a diagonal factor and unmirrored D6 instances made 13,440,
# and building each current entry from its own quantum integer made 9,291.
# Canonicalizing every product of two Laurent entries, and building the two
# sides of every unordered D6 pair, made 8,381.  Full products of the
# currents for every D4-D7 instance, not one per family or index, made 2,163.
# The per-index D6 and D7 products, the anti-diagonal sums and a right side
# per D7 instance, where the commutation lemmas now decide D6 by scalars and
# D7 once per m, made 1,491.  A series logarithm per weight in the build,
# where the log-derivative recurrence now reads a(l) off the diagonals, made
# 758.  Negative powers, inverses and quotients by a monomial through
# ONE / x and its canonicalizing tail made 696, and the D5 families built
# from products, where the verdict is now read entry by entry, 393.  A
# difference taken as the sum with a negated copy, where a difference of two
# unit denominators is now canonical as computed, made 381, and each quantum
# integer of the ladder matrices summed from n products of powers of r and
# s, where its terms are now read off their exponents, 170.  Building
# theta(l) for D5_1 and again for D5_2 made 146, and each neighbour
# difference a(e)_i - a(e)_j of D5 formed for the x+ family and again, as
# a_j - a_i, for the x- family, where the x- family now negates the x+
# family's difference, 141.  a(l) through the log-derivative recurrence,
# with a quotient by m w(0)_ii per entry, where each entry is now built in
# canonical form off the telescoped per-weight form (sl2 docstring), made
# 125.  The D5 neighbour differences a(e)_i - a(e)_j and their right sides
# t (K^-l)_ii D_j^e, each over the denominator l and canonicalized, where
# each pair now compares the numerators of a_i and of a_j plus a shifted
# copy of t over their one denominator (field.is_sum), made 75.
VERIFY_N4_NORMALIZE_CALLS = 7


def test_verify_normalize_count_tripwire(capsys, monkeypatch):
    from rsaffine.field import RatFunc

    calls = 0

    def counting(fn):
        def wrapped(cls, num, den):
            nonlocal calls
            calls += 1
            return fn(cls, num, den)

        return classmethod(wrapped)

    for name in ("_normalize", "_canonical"):
        monkeypatch.setattr(RatFunc, name, counting(getattr(RatFunc, name).__func__))
    code, _ = run(capsys, "verify", "--n", "4", "--json")
    assert code == EXIT_PASS
    assert calls == VERIFY_N4_NORMALIZE_CALLS


# Matrix products made by `verify --n 4 --json`, exact like the pmul count.
# The current module's invariant check runs once, on the module returned by
# build_current_eval; checking each intermediate module as well made 1,766.
# A commutator with a diagonal factor takes no product, and D6 builds the two
# sides of each unordered (k, k2) pair once; full products made 1,756.
# D6 builds each product X(a)X(b) once per anti-diagonal a + b; the two
# sides of each unordered pair made 1,018.  With the currents read as
# x(0) D^k, D6 builds X(a)X(0) once per a, D7 x+(k)x-(0) and x-(k2)x+(0)
# once per index, and D4 and D5 one verdict per family; products per
# instance made 856.  D6 now builds x(0)x(0) once per sign and D7 x+(0)x-(0)
# and x-(0)x+(0) once, whatever kmax; those per-index products, and the
# powers of K in the right side of every D7 instance, made 374.  The D5
# family verdict now reads the diagonal entries of K^-l, where it built
# K^-l x(0) D^e once per (l, sign) off the sign of e: 171.  Each commutator
# of two non-diagonal factors took its two full products, a @ b and b @ a:
# 165.  The one-pass commutator makes the same scalar products without
# calling Matrix.__matmul__, so that drop is work this count no longer sees,
# not work removed; VERIFY_N4_COMMUTATOR_PRODUCTS counts it, and the two
# counts sum to 165.  R2's 16 instances (two products each), the D4 families
# (two per tag) and the conjugation w b w^-1 in each of R4's 12 steps (two
# per step), which the conjugation lemma now reads off the group-likes'
# diagonals, made 125.  Each inverse pair and the gamma product multiplied
# out, where the weight view's inverse set and identity gamma halves now
# hold them with no product: 12 in the constructors of both modules (two
# pairs per node and three gamma products in build_chevalley_eval, one pair
# of each kind and three in build_current_eval), 9 in R1 and 7 in D1, made
# 61.  K = w w' and K^-1 = w^-1 w'^-1 multiplied out on every run, and
# K^-l = K^-(l-1) K^-1 per l in D5_1, whose diagonal the D5 families read,
# where the D5 and D7 lemmas now read K off the weight view's points and
# powers of K are multiplied out only for plain sides, made 33.
VERIFY_N4_MATMUL_CALLS = 28
# The products a @ b and b @ a that one-pass commutators of two
# non-diagonal factors stand for, two per commutator, in the same run: the
# four [(r - s) e_i, f_j] of R3.  The build's C(m), C'(m) for m <= lmax = 3
# and w(m), w'(-m) for m = 4..8, which are now read off the ladder (sl2
# docstring), made 40.
VERIFY_N4_COMMUTATOR_PRODUCTS = 8


def test_verify_matmul_count_tripwire(capsys, monkeypatch):
    from rsaffine.matrix import Matrix

    calls = 0
    matmul = Matrix.__matmul__

    def counting(a, b):
        nonlocal calls
        calls += 1
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counting)
    code, _ = run(capsys, "verify", "--n", "4", "--json")
    assert code == EXIT_PASS
    assert calls == VERIFY_N4_MATMUL_CALLS


def test_verify_commutator_product_count_tripwire(capsys, monkeypatch):
    import rsaffine.matrix
    import rsaffine.rep_core
    import rsaffine.sl2

    products = 0
    commutator = rsaffine.matrix.commutator

    def counting(a, b):
        nonlocal products
        if not (a.is_diagonal() or b.is_diagonal()):
            products += 2
        return commutator(a, b)

    for module in (rsaffine.matrix, rsaffine.rep_core):
        monkeypatch.setattr(module, "commutator", counting)
    code, _ = run(capsys, "verify", "--n", "4", "--json")
    assert code == EXIT_PASS
    assert products == VERIFY_N4_COMMUTATOR_PRODUCTS


# Polynomial gcds, recursive ones included, made by `verify --n 2 --a 1+r
# --json`, whose pinned entries all have real denominators.  Reducing each
# product and sum through gcds of its already reduced factors makes 5,942;
# one gcd of the whole product's numerator and denominator made 9,347.
# Full products for the commutators with a diagonal factor made 5,942.
# Checking the substituted modules made 3,474; the run now decides its pass
# on the symbolic module and only substitutes the distinct denominators
# (tests/test_specialize.py keeps the 3,474 of the direct path pinned).
# Dividing each weight's series logarithm by r - s while the symbolic module
# was built made 82; a(l) is now read off the telescoped per-weight form
# (sl2 docstring), with no division, so the build takes no gcd.  theta(l) of D5, built twice per l
# through a gcd of rho^l - rho^-l against r - s, made 24; it is now one exact
# division per l, and the run takes no gcd at all.
VERIFY_PINNED_PGCD_CALLS = 0


def test_verify_pinned_pgcd_count_tripwire(capsys, monkeypatch):
    import rsaffine.field as field

    calls = 0
    pgcd = field.pgcd

    def counting(p, q):
        nonlocal calls
        calls += 1
        return pgcd(p, q)

    monkeypatch.setattr(field, "pgcd", counting)
    code, _ = run(capsys, "verify", "--n", "2", "--a", "1+r", "--json")
    assert code == EXIT_PASS
    assert calls == VERIFY_PINNED_PGCD_CALLS
    assert calls < 9347


# Matrix-vector products made by the exact span closure of v_0 (x) v_0 in
# `tensor --left 4 --right 4 --a 1 --b s^-8 --json`, a pin where the closure
# is a proper submodule (dimension 9), so the certificate mod p refuses it
# and the exact worklist runs.  Each pivot of the closure is expanded once,
# so the count is at most dim x #generators (9 x 16 = 144).  The plain 4 x 4
# run made 241 here, re-eliminating every row after every sweep 1,600; its
# closure is now certified mod p, with no exact product at all.
TENSOR_44_APPLY_CALLS = 144


def test_tensor_apply_count_tripwire(capsys, monkeypatch):
    from rsaffine.hopf import tensor
    from rsaffine.matrix import Matrix
    from rsaffine.sl2 import build_chevalley_eval

    calls = 0
    apply = Matrix.apply

    def counting(self, vec):
        nonlocal calls
        calls += 1
        return apply(self, vec)

    monkeypatch.setattr(Matrix, "apply", counting)
    code, out = run(capsys, "tensor", "--left", "4", "--right", "4", "--json")
    assert code == EXIT_PASS
    assert calls == 0
    assert json.loads(out)["closure_dim_from_highest_weight"] == 25
    code, out = run(capsys, "tensor", "--left", "4", "--right", "4", "--a", "1", "--b", "s^-8", "--json")
    assert code == EXIT_PASS
    assert calls == TENSOR_44_APPLY_CALLS
    n_gens = len(tensor(build_chevalley_eval(4), build_chevalley_eval(4)).generators())
    assert calls <= json.loads(out)["closure_dim_from_highest_weight"] * n_gens == 9 * 16


# Polynomial products made by `drinfeld --n 3 --json`: the highest-weight
# series read for the reconstruction plus the per-weight RQ series, each
# through sl2.series_matrices on a freshly built current module.  The RQ
# check runs to the command's order 8 on a module with currents to k = 4,
# and its closed side is one division recurrence; checking only to order 6
# on a k = 3 module, with a full series inverse, made 5,207.  Expanding the
# closed side with every linear factor, before the common ones cancel, and
# building each current entry from its own quantum integer made 5,399.
# Multiplying the unit denominators of two Laurent values made 2,995.
# Reading a(l) through a series logarithm per weight, divided back by r - s,
# in each of the two builds made 1,983.  Sending a negative power of a
# monomial, its inverse and a quotient by one through ONE / x, with two
# products each, made 1,679.  Scaling each w(m) by r - s, where r - s is now
# hoisted into x-(0) and x+(0) once, made 1,157; each current as a fresh
# power of D per entry, where it is now a running product, 1,057; and
# dividing every expanded coefficient by a constant term of one, and
# multiplying it by the expansion's scalar, where that scalar is now folded
# into the numerator (drinfeld.expand), 1,045.  Building a(1) and a(-1) in
# both current modules, which neither the report nor the RQ check reads,
# made 964; both are now built with lmax=0.  Each quantum integer of the
# ladder matrices summed from n products of powers of r and s, where its
# terms are now read off their exponents (field.quantum_int), made 880.
# The series of both builds as general commutators, where they are now read
# off the ladder, n running monomial products per m (sl2 docstring), made
# 856, and reconstruct_P's divisions by r^n (s^k - r^k) through gcds, where
# each is now one exact division, 754.  Both builds storing the currents
# x+-(k), |k| <= 8, which neither the report nor the RQ check reads, where
# the command now builds series-only modules (sl2.build_series_eval), made
# 722, and reconstruct_P expanding r^3 P(sz)/P(rz) and its mirror to order
# 8, where each now takes the reduced form's polynomial identity (drinfeld
# docstring), 530.  The constructor of both series modules multiplying out
# each group-like inverse pair, where a pair in the weight view's inverse
# set (rep_core.Weights) now takes no product, made 519; and both builds
# inverting w and w' through Matrix.inverse, with two products per entry,
# where each inverse is now taken entry by entry, 479.  The RQ check
# building each factor parameter of rq_polynomials from powers and products
# of a, r and s, where it is now read off its lattice point, made 447;
# comparing the two prefactor readings as products, where they are now
# integer pairs, 399; shifting every factor by r or s and cancelling the
# lists as values, where they cancel on lattice points, 391; and expanding
# each weight's closed form to the order, where a pass is now the RQ
# identity on the reduced form (drinfeld docstring), 339.  monomial_quotient
# confirming the ratio of leading terms by a product, where it is now
# confirmed by shifting the divisor (field.point_quotient), made 333.
DRINFELD_N3_PMUL_CALLS = 331


def test_drinfeld_pmul_count_tripwire(capsys, monkeypatch):
    import rsaffine._kernel as kernel

    calls = 0
    pmul = kernel.pmul

    def counting(p, q):
        nonlocal calls
        calls += 1
        return pmul(p, q)

    monkeypatch.setattr(kernel, "pmul", counting)
    code, _ = run(capsys, "drinfeld", "--n", "3", "--json")
    assert code == EXIT_PASS
    assert calls == DRINFELD_N3_PMUL_CALLS


@pytest.mark.parametrize("shift,builds", (("plain", 2), ("rs-inverse", 1)))
def test_drinfeld_builds_each_current_module_once(capsys, monkeypatch, shift, builds):
    # the RQ check reads the shifted module; a shifted run reads its
    # polynomials from that same module.  Both read only the series, so
    # every build is a series-only module and no current module is built.
    from rsaffine import cli, drinfeld, sl2

    calls = []
    build = sl2.build_series_eval

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return build(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("drinfeld built a current module")

    for mod in (sl2, cli, drinfeld):
        monkeypatch.setattr(mod, "build_series_eval", counting)
    monkeypatch.setattr(sl2, "build_current_eval", refused)
    monkeypatch.setattr(cli, "build_current_eval", refused)
    code, _ = run(capsys, "drinfeld", "--n", "3", "--shift", shift, "--json")
    assert code == EXIT_PASS
    assert len(calls) == builds


def test_drinfeld_checks_rq_to_the_command_order(capsys, monkeypatch):
    # a per-weight series that leaves the closed form only at u^7 must fail
    # `drinfeld --n 3` at its order 8; weight 0 feeds the P check, so only
    # weight 2 is changed, in the series matrices that verify_RQ_form reads
    # once per module
    from rsaffine import drinfeld
    from rsaffine.field import ONE, ZERO
    from rsaffine.matrix import Matrix

    series_matrices = drinfeld.series_matrices

    def corrupted(mod, order):
        ws, wps = series_matrices(mod, order)
        if order >= 7:
            bump = Matrix.diagonal([ONE if j == 2 else ZERO for j in range(mod.dim)])
            ws = ws[:7] + [ws[7] + bump] + ws[8:]
        return ws, wps

    monkeypatch.setattr(drinfeld, "series_matrices", corrupted)
    code, out = run(capsys, "drinfeld", "--n", "3", "--json")
    doc = json.loads(out)
    assert code == EXIT_FAIL
    assert doc["checks"] == {"plus": "pass", "minus": "pass", "matches_closed_form": True}
    assert [e["pass"] for e in doc["RQ"]] == [True, True, False, True]


def test_drinfeld_reports_a_series_off_the_polynomial_form(capsys, monkeypatch):
    # a weight-0 plus series changed in its last coefficient: the plus side
    # fails, the minus side is skipped, and P and Q fall back to the closed form
    from rsaffine import drinfeld
    from rsaffine.field import ONE

    weight_gamma_series = drinfeld.weight_gamma_series

    def corrupted(mod, i, order):
        plus, minus = weight_gamma_series(mod, i, order)
        if i == 0:
            plus = plus[:-1] + (plus[-1] + ONE,)
        return plus, minus

    _, clean = run(capsys, "drinfeld", "--n", "2", "--json")
    monkeypatch.setattr(drinfeld, "weight_gamma_series", corrupted)
    code, out = run(capsys, "drinfeld", "--n", "2", "--json")
    doc, want = json.loads(out), json.loads(clean)
    assert code == EXIT_FAIL and doc["pass"] is False
    assert doc["checks"] == {
        "plus": "fail: plus series is not of Drinfeld polynomial form",
        "minus": "skipped",
        "matches_closed_form": False,
    }
    assert (doc["P"], doc["Q"]) == (want["P"], want["Q"])


# Polynomial products made by the pinned `tensor --left 3 --right 3 --a 1+r
# --b 2+s --json`, where the pinned entries have real denominators.  With
# the relations checked on the pinned tensor module and no shortcut for
# trivial gcds the run made 26,600, and full products for the commuting
# group-likes of R1 made 13,577.  The relations are decided on the symbolic
# module, and the pinned module is built only for the closure.  An integer
# evaluation certificate for trivial gcds saved 18 products here and nothing
# on any other benchmark run, so every gcd now goes through the PRS.
# Multiplying the unit denominators of two Laurent values made 10,240.
# Negative powers and inverses of monomials through ONE / x made 5,550, and
# scaling the R3 right side by the numerator 1 of 1/(r-s) made 5,239.  The
# exact span closure of the pinned module made 5,215; its full rank is now
# certified mod p, which takes no polynomial product.  Substituting the pins
# term by term, each term from its own image powers, made 4,765; a class of
# terms with the same a- or b-exponent now takes the pin's power once.  R2's
# sides built by products, where the conjugation lemma now decides each
# instance from one product per nonzero entry (1,152 in R2, now 384), and
# R4's conjugations w b w^-1 by products, where each step now scales e once
# (1,634 in R4, now 1,452), made 4,441; the right factor's a -> b taken
# through powers of b, where the exponent keys are now relabelled, 4,435.
# R4's iterates built on the 16-dimensional tensor, where the R4 tensor lemma
# now reads them off the 4-dimensional factors (R4 1,452, now 444), and the
# tensor's identity built as the Kronecker product of two identities (32),
# made 3,479.  R3 now reads its commutators off the factors too.  Rebuilding
# every coproduct image from the factors before R3, to confirm the coproduct
# form that modules now hold by construction (they are read-only), made 2,447
# (224 in the rebuild), and each quantum integer of the ladder matrices
# summed from n products of powers of r and s, where its terms are now read
# off their exponents, 2,223.  Substituting the pins into a constant entry
# denominator in reports_at_pin's regularity check, which now skips them,
# made 2,199; multiplying out the inverse pairs of both 16-dimensional
# tensors, where hopf.tensor now checks them on the factors' 4-dimensional
# products, 2,198; and substituting both factors at the pins and building the
# pinned tensor for the closure, whose full span is now certified on the
# symbolic tensor at the pins' values (hopf.span_closure), 2,038.  R1's
# inverse-pair and gamma products on the 16-dimensional tensor, where the R1
# tensor lemma now reads them off hopf.tensor's construction and the
# factors' commutators (rep_core docstring), made 1,566, and
# build_chevalley_eval inverting w and w' of each factor twice, where each
# inverse is now formed once, 1,422.  The tensor lemmas re-deriving each
# factor's conjugation scalars and inverse pairs on every R3 and R4 instance
# (and R4's ad-iterates once more), where each factor's weight view
# (rep_core.Weights) now reads each once, made 1,390; and each inverse pair
# tested by one product per diagonal entry, where the view now compares
# w^-1 with the inverse of w (a monomial inverse takes no product), 1,206.
# Each factor's constructor multiplying out its inverse pairs and the gamma
# product, where a pair in the weight view's inverse set now takes no
# product and identity gamma halves hold level zero with none, made 1,166;
# and hopf.tensor checking the tensor's inverse pairs on the factors'
# products, where the tensor is now built checked and its Kronecker-product
# pairs are diagonal, so they are read off its weight view, 1,110; and
# build_chevalley_eval inverting w and w' through Matrix.inverse, with two
# products per entry, where each inverse is now taken entry by entry, 1,078.
# Each pinned factor's Laurent entries divided by the image of their
# integer denominator, where the compiled substitution now keeps the
# numerator's image over it (field.substitution), made 1,046; and the weight
# views multiplying the diagonal entries g_a h_b of each conjugation scalar,
# where the entries are now lattice points whose keys add
# (rep_core.Weights), 980.
TENSOR_33_PINNED_PMUL_CALLS = 524


def test_tensor_pinned_pmul_count_tripwire(capsys, monkeypatch):
    import rsaffine._kernel as kernel

    calls = 0
    pmul = kernel.pmul

    def counting(p, q):
        nonlocal calls
        calls += 1
        return pmul(p, q)

    monkeypatch.setattr(kernel, "pmul", counting)
    code, _ = run(
        capsys, "tensor", "--left", "3", "--right", "3", "--a", "1+r", "--b", "2+s", "--json"
    )
    assert code == EXIT_PASS
    assert calls == TENSOR_33_PINNED_PMUL_CALLS
    assert calls < 26600


# Polynomial products made by the failing pinned run `verify --n 2 --kmax 2
# --lmax 2 --a 2+s --json` with x+(1) zeroed in the current module.  Its
# relation checks run once, on the symbolic module, and only the sides of
# the failing instances are mapped through the pin; re-checking the whole
# suite on the pinned module after a symbolic failure made 8,362, and
# building each current entry from its own quantum integer made 5,076.
# Multiplying the unit denominators of two Laurent values, and building the
# two sides of every unordered D6 pair, made 4,800.  With x+(1) zeroed no
# D+ can be read, so the x+ currents keep their plain products, while the x-
# currents are read as x(0) D^k; plain products for every instance made 3,171.
# The x- sign of D6 is now decided by its commutation lemma, with x(0)x(0)
# once, and D7 takes its plain commutators; X(a)X(0) once per a on the x-
# side of D6, and x-(k2)x+(0) once per k2 in D7, made 3,096.  A series
# logarithm per weight in the build, divided back by r - s, made 3,002.
# The form check now stops at the first x+(k) off the form; comparing every
# x+(k) in the window with x+(0) D+^k made 2,756.  Negative powers and
# inverses of monomials through ONE / x made 2,698, scaling by 1 2,471, and
# the x- family of D5 built from products, not read entry by entry, 2,397.
# Scaling each w(m) by r - s, where r - s is now hoisted into x-(0) and
# x+(0) once, made 2,382, and each current as a fresh power of D per entry,
# where it is now a running product, 2,374.  Mapping the failing sides
# through the pin term by term, each term from its own power of 2+s, made
# 2,370; a class of terms with the same a-exponent now takes it once.  R2
# and the D4 families by products, where the conjugation lemma now decides
# them (R2 96 then 32, D4 84 then 76), and R4's conjugations w b w^-1 by
# products, where each step now scales e once (R4 90 then 96), made 1,686.
# Each quantum integer of the ladder matrices summed from n products of
# powers of r and s, where its terms are now read off their exponents
# (field.quantum_int), made 1,620, and substituting the pin into each
# constant entry denominator in reports_at_pin's regularity check, which now
# skips them, 1,608.  theta(l) built twice per l through a gcd, where it is
# now one exact division per l, made 1,604, and the build's series as general
# commutators, where they are now read off the ladder, 1,507.  R3 and R4 of
# the Chevalley module now compare E_i and F_i scaled by r - s (the scaling
# lemma): 10 products to scale them, 6 fewer in R3, so 4 more calls.
# build_chevalley_eval inverting w and w' twice each, where each inverse is
# now formed once, made 1,491.  Each R4 iterate testing w^-1 w = 1 by
# products, where the module's weight view now compares w^-1 with the
# inverse of w once per module, made 1,479; and the scaled Chevalley module
# re-reading the scalars R2 had read, which it now shares, 1,467.  The
# constructor of both modules multiplying out each group-like inverse pair
# and the gamma product, where a pair in the weight view's inverse set now
# takes no product and identity gamma halves hold level zero with none,
# made 1,459; the same products in R1, 1,423; and in D1, 1,396.  Both
# builds inverting w and w' through Matrix.inverse, with two products per
# entry, where each inverse is now taken entry by entry, made 1,375; and
# a(l) through the log-derivative recurrence, where each entry is now read
# off the telescoped per-weight form with no product (sl2 docstring), 1,351.
# Each substituted entry raising its own powers of the pin, where one
# compiled substitution now keeps a table of them (field.substitution),
# made 1,271; each Laurent entry divided by the image of its integer
# denominator, where its numerator's image is now kept over it, 1,145; and
# the weight view multiplying the diagonal entries g_a h_b of each
# conjugation scalar, where they are now lattice points (rep_core.Weights),
# 1,084.  The x- currents, still on the form, read by products (current_form
# scaling columns by D, the D5 x- families by neighbour differences) and
# K = w w' and K^-1 multiplied out before any relation read them, where the
# form is now read as lattice points (rep_core docstring), made 1,040.
MUTATED_PINNED_PMUL_CALLS = 991


def test_mutated_pinned_pmul_count_tripwire(capsys, monkeypatch):
    import rsaffine._kernel as kernel

    calls = 0
    pmul = kernel.pmul

    def counting(p, q):
        nonlocal calls
        calls += 1
        return pmul(p, q)

    mutate_cli(monkeypatch, "xplus")
    monkeypatch.setattr(kernel, "pmul", counting)
    code, _ = run(
        capsys, "verify", "--n", "2", "--kmax", "2", "--lmax", "2", "--a", "2+s", "--json"
    )
    assert code == EXIT_FAIL
    assert calls == MUTATED_PINNED_PMUL_CALLS
    assert calls < 8362


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_mutations_are_caught(capsys, monkeypatch, mutation):
    mutate_cli(monkeypatch, mutation)
    code, out = run(capsys, "verify", "--n", "2", "--kmax", "2", "--lmax", "2")
    assert code == EXIT_FAIL
    assert "FAIL" in out
    if MUTATIONS[mutation][0] == "build_current_eval":
        # the loop twist is decided on the symbolic module, so a corrupted
        # current must fail there too; only x+(1) + I leaves the a-grading
        code, out = run(capsys, "twist", "--aut", "gamma2", "--c", "1+r", "--n", "2", "--json")
        assert code == EXIT_FAIL
        assert json.loads(out)["matches_reparameterized_module"] == (mutation != "xplus-identity")


def test_verify_json_deterministic(capsys):
    args = ("verify", "--n", "1", "--kmax", "2", "--lmax", "2", "--json")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == EXIT_PASS
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["pass"] is True
    assert {r["relation_id"] for r in doc["reports"]} >= {"R1", "R2", "R3", "R4", "D7"}


def test_verify_with_pinned_parameter(capsys):
    code, _ = run(capsys, "verify", "--n", "1", "--kmax", "2", "--lmax", "2", "--a", "3/2")
    assert code == EXIT_PASS


def test_drinfeld_n0(capsys):
    code, out = run(capsys, "drinfeld", "--n", "0")
    assert code == EXIT_PASS
    assert "P = 1" in out


def test_drinfeld_n1(capsys):
    code, out = run(capsys, "drinfeld", "--n", "1")
    assert code == EXIT_PASS
    assert "-r^(-2)*a" in out


def test_drinfeld_json_schema(capsys):
    for argv in (
        ("--n", "3", "--order", "8"),
        ("--n", "4"),  # polynomials of degree above the RQ order are truncated
        ("--n", "7"),  # largest n whose order 2n+2 fits MAX_ORDER
    ):
        code, out = run(capsys, "drinfeld", *argv, "--json")
        assert code == EXIT_PASS, argv
        doc = json.loads(out)
        assert doc["checks"]["plus"] == "pass"
        assert doc["checks"]["minus"] == "pass"
        assert doc["checks"]["matches_closed_form"] is True
        assert len(doc["RQ"]) == doc["n"] + 1
        assert all(e["pass"] for e in doc["RQ"])


def test_table_g2(capsys):
    code, out = run(capsys, "table", "--type", "G2")
    assert code == EXIT_PASS
    assert "r^(1/3)*s^(-1/3)" in out


# --json prints no text, so the table command builds no text lines for it.
def test_table_json_builds_no_text(capsys, monkeypatch):
    from rsaffine import cli

    code, text = run(capsys, "table", "--type", "E6")
    assert code == EXIT_PASS and text.startswith("quantum Cartan matrix for E6")

    def refuse(t):
        raise AssertionError("text lines built for --json")

    monkeypatch.setattr(cli, "_table_lines", refuse)
    code, out = run(capsys, "table", "--type", "E6", "--json")
    assert code == EXIT_PASS and json.loads(out)["command"] == "table"


def test_table_json_matches_library(capsys):
    from rsaffine.cartan import build_pairing, parse_type, table_to_json

    code, out = run(capsys, "table", "--type", "B3", "--json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    want = table_to_json(build_pairing(parse_type("B3")))
    for key in ("entries", "cartan", "d"):
        assert doc[key] == want[key]


def test_specialize_s_to_r(capsys):
    code, out = run(capsys, "specialize", "--map", "s=r", "--n", "2")
    assert code == EXIT_PASS
    assert "central" in out


def test_specialize_s_to_r_inverse_json(capsys):
    code, out = run(capsys, "specialize", "--map", "s=r^-1", "--n", "2", "--json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["table"][0][0] == "r^2"


def test_specialize_bad_map(capsys):
    code, _ = run(capsys, "specialize", "--map", "s=q", "--n", "1")
    assert code == EXIT_USAGE


def test_tensor_command(capsys):
    code, out = run(capsys, "tensor", "--left", "1", "--right", "1", "--json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["closure_dim_from_highest_weight"] == 4
    assert doc["relations_pass"] is True


@pytest.mark.parametrize(
    "pins,certified",
    [
        (("--a", "1+r", "--b", "2+s"), True),
        (("--a", "b", "--b", "1/a"), True),
        (("--a", "1", "--b", "s^-2"), False),
        (("--b", "s^-2"), True),
    ],
)
def test_tensor_substitutes_the_factors_only_when_the_certificate_fails(
    capsys, monkeypatch, pins, certified
):
    import rsaffine.cli as cli

    substituted = []
    substitute = cli.substitute_module

    def spy(mod, **subs):
        substituted.append(sorted(subs))
        return substitute(mod, **subs)

    monkeypatch.setattr(cli, "substitute_module", spy)
    code, out = run(capsys, "tensor", "--left", "1", "--right", "1", *pins, "--json")
    assert code == EXIT_PASS
    assert json.loads(out)["closure_dim_from_highest_weight"] == (4 if certified else 3)
    # the right factor's a -> b, then one substitution per pinned factor
    pinned = [["a"]] if "--a" in pins else []
    pinned += [["b"]] if "--b" in pins else []
    assert substituted == [["a"]] + ([] if certified else pinned)


@pytest.mark.parametrize(
    "argv",
    [
        ("--left", "2", "--right", "2", "--a", "r-324563966933211791"),
        ("--left", "3", "--right", "2", "--a", "r-324563966933211791", "--b", "2+s"),
        ("--left", "4", "--right", "4", "--a", "1+r", "--b", "2+s"),
        ("--left", "4", "--right", "4", "--a", "1", "--b", "s^-8"),
    ],
)
@pytest.mark.parametrize("as_json", (True, False))
def test_certified_tensor_closure_prints_the_exact_bytes(capsys, monkeypatch, argv, as_json):
    # r - 324563966933211791 vanishes at the first point of the certificate
    # (the constant is t_r^6 mod P61), which moves on to the next; whichever
    # way the closure is decided, the output is that of the exact pinned path
    import rsaffine.cli as cli

    argv = ("tensor", *argv) + (("--json",) if as_json else ())
    code, out = run(capsys, *argv)
    monkeypatch.setattr(cli, "full_span_certified", lambda mod, seeds, **pins: [False] * len(seeds))
    assert run(capsys, *argv) == (code, out)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_specialize_s_to_r_verdict_is_the_per_seed_closure(capsys, n):
    from rsaffine.field import ONE, ZERO
    from rsaffine.hopf import span_closure
    from rsaffine.sl2 import build_chevalley_eval
    from rsaffine.specialize import parse_spec_map, specialize_module

    mod = specialize_module(build_chevalley_eval(n), parse_spec_map("s=r"))
    seeds = [[ONE if j == i else ZERO for j in range(mod.dim)] for i in range(mod.dim)]
    want = all(len(span_closure(mod, seed)) == mod.dim for seed in seeds)
    code, out = run(capsys, "specialize", "--map", "s=r", "--n", str(n), "--json")
    assert json.loads(out)["span_full_from_every_basis_vector"] is want
    assert code == (EXIT_PASS if want else EXIT_FAIL)


def test_twist_gamma2(capsys):
    code, out = run(capsys, "twist", "--aut", "gamma2", "--c", "r*s", "--n", "1", "--json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["matches_reparameterized_module"] is True


def test_twist_gamma1(capsys):
    code, _ = run(capsys, "twist", "--aut", "gamma1", "--n", "1")
    assert code == EXIT_PASS


def test_twist_sigma(capsys):
    code, _ = run(capsys, "twist", "--aut", "sigma", "--signs", "+-", "--n", "2")
    assert code == EXIT_PASS


# Polynomial products made by `twist --aut gamma2 --c 1+r --n 3 --json`.  The
# verdicts are one check on the symbolic module, mapped through a -> (1+r) a,
# and the grading check compares each current scaled by c^k with its image
# there.  Building the twisted module, with its series and imaginary
# generators derived again from the scaled currents, substituting the whole
# module for the comparison and checking the twisted module, whose entries
# have real denominators, made 5,676.  Reading a(l) in the build through a
# series logarithm per weight, divided back by r - s, made 2,662.  Negative
# powers and inverses of monomials through ONE / x made 2,292, scaling by 1
# 2,003, D7 scaling by r - s once per m 1,954, and the D5 families built
# from products, not read entry by entry, 1,924.  Scaling each w(m) of the
# build by r - s, where r - s is now hoisted into x-(0) and x+(0) once, made
# 1,876, and each current as a fresh power of D per entry, where it is now a
# running product, 1,866.  Substituting a -> c·a term by term, each term
# from its own power of c·a, made 1,860; a class of terms with the same
# a-exponent now takes it once.  The D4 families by products, where the
# conjugation lemma now decides each tag (rep_core docstring), made 1,317.
# Each quantum integer of the ladder matrices summed from n products of
# powers of r and s, where its terms are now read off their exponents
# (field.quantum_int), made 1,293, and substituting a -> c·a into each
# constant entry denominator in reports_at_pin's regularity check, which now
# skips them, 1,281.  theta(l) built twice per l through a gcd, where it is
# now one exact division per l, made 1,278, and the build's series as general
# commutators, where they are now read off the ladder, 1,181.  The build's
# constructor multiplying out each group-like inverse pair and the gamma
# product, where a pair in the weight view's inverse set now takes no product
# and identity gamma halves hold level zero with none, made 1,153; and D1
# doing the same, 1,133.  The build inverting w and w' through
# Matrix.inverse, with two products per entry, where each inverse is now
# taken entry by entry, made 1,105; and a(l) through the log-derivative
# recurrence, where each entry is now read off the telescoped per-weight
# form with no product (sl2 docstring), 1,089.  Each current's entries
# raising their own powers of c·a, where one compiled substitution now keeps
# a table of them (field.substitution), made 982; each Laurent entry divided
# by the image of its integer denominator, where its numerator's image is
# now kept over it, 742; and the weight view multiplying the diagonal
# entries g_a h_b of each conjugation scalar, where they are now lattice
# points (rep_core.Weights), 664.  D4-D7 reading the current form by
# products, where it is now read as lattice points (rep_core docstring),
# made 652, and the match of every current with its image under a -> c·a
# by products, where an a-homogeneous current now holds off its exponent
# keys (specialize.matches_reparameterized_module), 416.
TWIST_GAMMA2_N3_PMUL_CALLS = 128


def test_twist_pmul_count_tripwire(capsys, monkeypatch):
    import rsaffine._kernel as kernel

    calls = 0
    pmul = kernel.pmul

    def counting(p, q):
        nonlocal calls
        calls += 1
        return pmul(p, q)

    monkeypatch.setattr(kernel, "pmul", counting)
    code, _ = run(capsys, "twist", "--aut", "gamma2", "--c", "1+r", "--n", "3", "--json")
    assert code == EXIT_PASS
    assert calls == TWIST_GAMMA2_N3_PMUL_CALLS
    assert calls < 5676


def _image_powers(capsys, monkeypatch, c):
    """The powers of c·a, with how often each is raised, that
    `twist --aut gamma2 --c c --n 3 --json` raises, and its exit code."""
    from collections import Counter

    from rsaffine.field import A, RatFunc, parse

    ca, raised = parse(c) * A, Counter()
    pow_ = RatFunc.__pow__

    def counting(x, n):
        if x == ca:
            raised[n] += 1
        return pow_(x, n)

    monkeypatch.setattr(RatFunc, "__pow__", counting)
    code, _ = run(capsys, "twist", "--aut", "gamma2", "--c", c, "--n", "3", "--json")
    return raised, code


# A current that is not a-homogeneous (x+(1) + I) takes the entrywise
# comparison with its image under a -> c·a, through one compiled
# substitution (field.substitution) whose table of image powers serves every
# entry: each distinct power of c·a is raised once, where each entry raised
# its own.  The failed match decides the verdict, so the relation check,
# whose failures would be mapped through a map of their own, is not run.
def test_twist_raises_each_image_power_once(capsys, monkeypatch):
    mutate_cli(monkeypatch, "xplus-identity")
    raised, code = _image_powers(capsys, monkeypatch, "(1+r)/(2+s)")
    assert code == EXIT_FAIL
    assert raised and max(raised.values()) == 1


# Every current of the clean module is a-homogeneous of degree k, which its
# exponent keys show, so the match substitutes nothing and the passing
# check maps no failure: no power of c·a is raised at all.
def test_clean_twist_raises_no_image_power(capsys, monkeypatch):
    raised, code = _image_powers(capsys, monkeypatch, "(1+r)/(2+s)")
    assert code == EXIT_PASS
    assert not raised


def test_output_does_not_depend_on_the_environment():
    # variables once read by the command line change nothing: every run
    # depends only on its argv
    import rsaffine

    src = os.path.dirname(os.path.dirname(rsaffine.__file__))
    clean = {k: v for k, v in os.environ.items() if not k.startswith("RSAFFINE")}
    clean["PYTHONPATH"] = src
    noisy = {**clean, "RSAFFINE_ORDER": "abc", "RSAFFINE_ENABLE_MUTATE": "1"}
    for argv in (("verify", "--n", "1", "--json"), ("drinfeld", "--n", "1", "--json")):
        cmd = [sys.executable, "-m", "rsaffine.cli", *argv]
        want = subprocess.run(cmd, env=clean, capture_output=True, text=True)
        got = subprocess.run(cmd, env=noisy, capture_output=True, text=True)
        assert want.returncode == got.returncode == EXIT_PASS, got.stderr
        assert got.stdout == want.stdout


def test_usage_error_on_unknown_command(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_main_builds_the_parser_once_and_keeps_no_state(capsys, monkeypatch):
    # main builds the parser on its first call and keeps it; a pin, an
    # argument or an error of one call must not reach the next
    from rsaffine import cli

    argv = ("verify", "--n", "1", "--json")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    fresh = subprocess.run(
        [sys.executable, "-m", "rsaffine.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    builds, pins = 0, []
    build, verify = cli.build_parser, cli.cmd_verify

    def counting():
        nonlocal builds
        builds += 1
        return build()

    def recording(args):
        pins.append(args.a)
        return verify(args)

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "cmd_verify", recording)
    cli._parser.cache_clear()
    assert run(capsys, "verify", "--n", "1", "--a", "2", "--json")[0] == EXIT_PASS
    assert main(["verify", "--n", "1", "--a"]) == EXIT_USAGE
    capsys.readouterr()
    code = main(list(argv))
    captured = capsys.readouterr()
    cli._parser.cache_clear()
    assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert (builds, pins) == (1, ["2", None])


# (argv, exit code, text stderr must contain)
BAD_INPUT_CASES = [
    (("drinfeld", "--n", "3", "--order", "4"), EXIT_USAGE, "--order"),
    (("drinfeld", "--n", "1", "--order", "1"), EXIT_USAGE, "--order"),
    (("drinfeld", "--n", "12"), EXIT_USAGE, "--n"),
    (("drinfeld", "--n", "8", "--order", "16"), EXIT_USAGE, "--n"),
    (("drinfeld", "--n", "3", "--order", "7"), EXIT_PASS, ""),
    (("verify", "--n", "1", "--mutate", "xplus"), EXIT_USAGE, "--mutate"),
    (("verify", "--n", "1", "--lmax", "-3"), EXIT_USAGE, "--lmax"),
    (("verify", "--n", "1", "--lmax", "0"), EXIT_USAGE, "--lmax"),
    (("verify", "--n", "1", "--kmax", "4", "--lmax", "9"), EXIT_USAGE, "--lmax"),
    (("verify", "--n", "1", "--kmax", "2", "--lmax", "4"), EXIT_PASS, ""),
    (("twist", "--aut", "gamma1", "--lmax", "-3"), EXIT_USAGE, "--lmax"),
    (("twist", "--aut", "gamma1", "--kmax", "2", "--lmax", "5"), EXIT_USAGE, "--lmax"),
    (("twist", "--aut", "gamma2", "--n", "1"), EXIT_USAGE, "--c"),
    (("twist", "--aut", "gamma2", "--c", "1/0"), EXIT_USAGE, "--c"),
    (("twist", "--aut", "sigma", "--signs", "+++", "--n", "1"), EXIT_USAGE, "--signs"),
    (("twist", "--aut", "sigma", "--signs", "+x"), EXIT_USAGE, "--signs"),
    (("twist", "--aut", "sigma", "--signs=-+"), EXIT_PASS, ""),
    (("twist", "--aut", "sigma", "--signs", "-", "-", "--n", "1"), EXIT_PASS, ""),
    (("twist", "--aut", "sigma", "--signs=--"), EXIT_USAGE, "--signs"),
    (("twist", "--aut", "gamma1", "--c", "2"), EXIT_USAGE, "--c"),
    (("twist", "--aut", "sigma", "--c", "2"), EXIT_USAGE, "--c"),
    (("twist", "--aut", "gamma2", "--c", "2", "--signs", "+", "-"), EXIT_USAGE, "--signs"),
    (("twist", "--aut", "gamma1", "--signs", "+-"), EXIT_USAGE, "--signs"),
    (("twist", "--aut", "sigma", "--n", "1"), EXIT_PASS, ""),
    (("verify", "--n", "1", "--a", "r^(1/7)"), EXIT_USAGE, "--a"),
    (("tensor", "--left", "1", "--right", "1", "--b", "r^(1/7)"), EXIT_USAGE, "--b"),
    (("tensor", "--left", "-1", "--right", "2"), EXIT_USAGE, "--left must be in 0..12"),
    (("tensor", "--left", "2", "--right", "-3"), EXIT_USAGE, "--right must be in 0..12"),
    (("tensor", "--left", "13", "--right", "1"), EXIT_USAGE, "--left must be in 0..12"),
    (("tensor", "--left", "0", "--right", "13"), EXIT_USAGE, "--right must be in 0..12"),
    (("verify", "--n", "1", "--a", ""), EXIT_USAGE, "--a: cannot parse scalar ''"),
    (("tensor", "--left", "1", "--right", "1", "--a", ""), EXIT_USAGE, "--a: cannot parse scalar ''"),
    (("tensor", "--left", "1", "--right", "1", "--b", ""), EXIT_USAGE, "--b: cannot parse scalar ''"),
    (("table", "--type", "E8"), EXIT_USAGE, "--type"),
    (("table", "--type", "A99999"), EXIT_USAGE, "--type"),
    (("table", "--type", "A\u00b2"), EXIT_USAGE, "--type"),
    (("table", "--type", "A" + "0" * 4301 + "1"), EXIT_PASS, ""),
    (("table", "--type", "A" + "0" * 4301 + "99999"), EXIT_USAGE, "--type"),
    (("verify", "--n", "1", "--a", "(1+r)^5000"), EXIT_USAGE, "--a"),
    (("verify", "--n", "1", "--a", "7^6000"), EXIT_USAGE, "--a"),
    (("verify", "--type", "E8"), EXIT_USAGE, "--type"),
    (("specialize", "--map", "r=s^100000", "--n", "1"), EXIT_USAGE, "--map"),
    (("specialize", "--map", "r=s^-1000", "--n", "1"), EXIT_USAGE, "--map"),
    (("specialize", "--map", "r=s^-999", "--n", "1"), EXIT_PASS, ""),
    (("specialize", "--map", "r=s^1_0", "--n", "1"), EXIT_USAGE, "--map"),
    (("specialize", "--map", "s=q", "--n", "1"), EXIT_USAGE, "--map"),
]
# scalars nested past the parser bound, written with non-ASCII digits, or
# with a divisor or a negatively powered base that is zero, literally or
# by evaluation; each of those ends in a positioned `division by zero`
SCALAR_PARSE_CASES = [
    (("verify", "--n", "1", "--a", "(" * 600 + "r" + ")" * 600), "--a"),
    (("verify", "--n", "1", "--a=" + "-" * 1000 + "r"), "--a"),
    (("twist", "--aut", "gamma2", "--c", "(" * 400 + "r" + ")" * 400), "--c"),
    (("verify", "--n", "1", "--a", "\u0663"), "--a"),
    (("verify", "--n", "1", "--a", "\u0661/\u0662"), "--a"),
    (("tensor", "--left", "1", "--right", "1", "--b", "\u00b2"), "--b"),
    (("verify", "--n", "1", "--a", "1/0"), "--a"),
    (("verify", "--n", "1", "--a", "2/000"), "--a"),
    (("verify", "--n", "1", "--a", "r^(1/0)"), "--a"),
    (("verify", "--n", "1", "--a", "r^(-3/00)"), "--a"),
    (("verify", "--n", "1", "--a", "1/(r-r)"), "--a"),
    (("verify", "--n", "1", "--a", "(r-r)^-1"), "--a"),
    (("verify", "--n", "1", "--a", "0^-1"), "--a"),
    (("verify", "--n", "1", "--a", "r/(s-s)*2"), "--a"),
]
BAD_INPUT_CASES += [(argv, EXIT_USAGE, flag) for argv, flag in SCALAR_PARSE_CASES]


def _case_id(argv):
    return " ".join(x if len(x) <= 40 else f"{x[:8]}...{x[-8:]}" for x in argv)


@pytest.mark.parametrize(
    "argv,want,flag",
    BAD_INPUT_CASES,
    ids=[_case_id(a) for a, _, _ in BAD_INPUT_CASES],
)
def test_bad_input_exit_codes(capsys, argv, want, flag):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == want
    assert "Traceback" not in err
    assert flag in err


@pytest.mark.parametrize("argv,flag", SCALAR_PARSE_CASES, ids=[_case_id(a) for a, _ in SCALAR_PARSE_CASES])
def test_scalar_parse_errors_are_one_line(capsys, argv, flag):
    assert main(list(argv)) == EXIT_USAGE
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {flag}: cannot parse scalar")
    assert line.endswith(("nesting deeper than 100", "expected a value", "division by zero"))


# A refused scalar is echoed once, cut to a window around the error
# position, so the error line stays short whatever the input's length.
@pytest.mark.parametrize(
    "text",
    (
        "(" * 600 + "r" + ")" * 600,
        "-" * 1000 + "r",
        "1+" * 600 + "q",
        "r" * 2000,
        "(1+r)^(1/2)" + "+r" * 600,
        "r^" + "9" * 999,
    ),
    ids=("nested", "minus", "late error", "trailing input", "no position", "long exponent"),
)
def test_scalar_parse_error_line_is_bounded(capsys, text):
    assert main(["verify", "--n", "1", "--a=" + text]) == EXIT_USAGE
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: --a: cannot parse scalar '")
    assert len(line) < 200


# A refused --map is echoed through the same window, and its exponent is
# bounded on the text, before int() could refuse more than 4300 digits.
@pytest.mark.parametrize(
    "text,reason",
    (
        ("r=s^" + "1" * 3000, "needs |k| < 1000"),
        ("r=s^(-" + "9" * 5000 + ")", "needs |k| < 1000"),
        ("x" * 3000, "expected s=r^-1, s=r, r=s^k or independent"),
    ),
    ids=("long exponent", "exponent past int()", "long map"),
)
def test_map_parse_error_line_is_bounded(capsys, text, reason):
    assert main(["specialize", "--n", "1", "--map", text]) == EXIT_USAGE
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: --map: cannot parse specialization map '")
    assert line.endswith(reason)
    assert len(line) < 200


# -- fuzz over all six commands ------------------------------------------------------

_SCALARS = ("0", "1", "2+s", "1/(r-s)", "a", "1/a", "b", "r^(1/2)", "r^(1/7)", "x", "(r", "")
_SCALARS += ("(" * 300 + "r" + ")" * 300,)  # nested past the parser bound
_NS = ("-1", "0", "1", "2", "3")
_KMAXES = ("0", "1", "2")
_LMAXES = ("0", "1", "2", "4")
_SHIFTS = ("plain", "rs-inverse", "none")
# command -> flag -> values, drawn from small pools that straddle every
# bound; the first flags listed for table, specialize, tensor and twist are
# required, so they are always given
_FLAGS = {
    "verify": {
        "--type": ("A1", "A2", "Z1"),
        "--n": _NS,
        "--shift": _SHIFTS,
        "--kmax": _KMAXES,
        "--lmax": _LMAXES,
        "--a": _SCALARS,
    },
    "drinfeld": {"--n": _NS, "--shift": _SHIFTS, "--order": ("1", "7", "8", "17")},
    "table": {"--type": ("A1", "A4", "G2", "E9", "")},
    "specialize": {
        "--map": ("s=r", "s=r^-1", "r=s^2", "independent", "r=s^0", "s=q", "r=s^" + "1" * 3000),
        "--n": _NS,
    },
    "tensor": {"--left": _NS, "--right": _NS, "--a": _SCALARS, "--b": _SCALARS},
    "twist": {
        "--aut": ("sigma", "gamma1", "gamma2", "tau"),
        "--n": _NS,
        "--c": _SCALARS,
        "--signs": ("+", "+-", "-+", "x"),
        "--shift": _SHIFTS,
        "--kmax": _KMAXES,
        "--lmax": _LMAXES,
    },
}
_REQUIRED = {"table": 1, "specialize": 1, "tensor": 2, "twist": 1}


@st.composite
def _argvs(draw):
    cmd = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [cmd]
    for pos, (flag, pool) in enumerate(_FLAGS[cmd].items()):
        values = st.sampled_from(pool)
        value = draw(values if pos < _REQUIRED.get(cmd, 0) else st.none() | values)
        if value is not None:
            argv += [flag, value]
    return argv + (["--json"] if draw(st.booleans()) else [])


@settings(max_examples=50, deadline=None)
@given(_argvs())
def test_cli_fuzz_exit_codes(argv):
    # no exception escapes main, the exit code is 0, 1 or 2, and exit 1
    # means a check failed: a document with pass false, or a last line FAIL
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_USAGE)
    if code == EXIT_FAIL:
        if "--json" in argv:
            assert json.loads(out.getvalue())["pass"] is False
        else:
            assert out.getvalue().splitlines()[-1] == "FAIL"
