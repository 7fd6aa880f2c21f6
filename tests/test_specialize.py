"""Parameter specializations and their observable consequences."""

import pytest
from mutations import apply_mutation
from seriesoracle import with_series
from twists import twist_gamma1, twist_gamma2

from rsaffine.cartan import AffineType, build_pairing
from rsaffine.errors import DivisionByZero, SpecializationPole, TypeMismatch
from rsaffine.field import ONE, A, B, R, S, ZERO, RatFunc, parse, quantum_int
from rsaffine.hopf import span_closure, tensor
from rsaffine.matrix import Matrix
from rsaffine.rep_core import E, MatrixModule, W, Wp, Xm, Xp, all_pass, check_chevalley, check_drinfeld
from rsaffine.sl2 import build_chevalley_eval, build_current_eval
from rsaffine.specialize import (
    SpecMap,
    centrality_report,
    parse_spec_map,
    reports_at_pin,
    specialize_module,
    substitute_module,
)

A1 = build_pairing(AffineType("A", 1))


def specialize_table(t, m):
    """Entrywise image of the pairing table under m; a matrix of RatFunc values."""
    return [[m.apply(e) for e in row] for row in t.entries]


def test_map_parsing():
    assert parse_spec_map("s=r^-1").kind == "s_to_r_inverse"
    assert parse_spec_map("s=r").kind == "s_to_r"
    m = parse_spec_map("r=s^3")
    assert m.kind == "r_to_s_pow" and m.k == 3
    assert parse_spec_map("independent").kind == "independent"
    with pytest.raises(ValueError):
        parse_spec_map("r=q")
    with pytest.raises(ValueError):
        SpecMap("r_to_s_pow", 1)
    # the exponent is bounded on its digits, leading zeros aside, before
    # int() could refuse more than 4300 of them
    assert parse_spec_map("r=s^" + "0" * 5000 + "5").k == 5
    assert parse_spec_map("r=s^(-" + "0" * 5000 + "999)").k == -999
    for text in ("r=s^" + "9" * 5000, "r=s^1000", "r=s^(-1000)"):
        with pytest.raises(ValueError, match=r"needs \|k\| < 1000$"):
            parse_spec_map(text)


def test_rank1_table_to_classical():
    got = specialize_table(A1, SpecMap("s_to_r_inverse"))
    assert got == [[R**2, R**-2], [R**-2, R**2]]


def test_rank1_table_to_all_ones():
    got = specialize_table(A1, SpecMap("s_to_r"))
    one = ONE
    assert got == [[one, one], [one, one]]


def test_rank1_table_one_parameter_rename():
    # with q^2 := r s^-1 the image under r -> s^3 is the q-matrix
    got = specialize_table(A1, SpecMap("r_to_s_pow", 3))
    q2 = (R * S**-1).substitute(r=S**3)
    assert q2 == S**2
    assert got == [[q2, q2**-1], [q2**-1, q2]]


def test_independent_map_is_identity():
    got = specialize_table(A1, SpecMap("independent"))
    assert got == [list(row) for row in A1.entries]


def test_table_pole():
    from rsaffine.cartan import PairingTable

    bad = PairingTable(
        type=A1.type,
        entries=((ONE / (R - S), ONE), (ONE, ONE)),
        cartan=A1.cartan,
        d=A1.d,
        diagnostics=(),
    )
    with pytest.raises(SpecializationPole):
        specialize_table(bad, SpecMap("s_to_r"))


# -- s -> r: the degenerate equal-parameter case --------------------------------------


@pytest.mark.parametrize("n", range(1, 5))
def test_grouplikes_become_central(n):
    sp = specialize_module(build_chevalley_eval(n), SpecMap("s_to_r"))
    assert centrality_report(sp)["failures"] == []


def test_grouplikes_of_the_generic_module_are_not_central():
    # each of the 8 group-likes fails to commute with E(0), E(1), F(0), F(1)
    rep = centrality_report(build_chevalley_eval(2))
    assert rep["checked"] == 128
    assert len(rep["failures"]) == 32
    assert "[W(1,+1), E(1)] != 0" in rep["failures"]


# centrality_report reads a group-like with lattice points off its
# diagonal; against the plain commutators it gives the same failures, in the
# same order, on the generic, the specialized and two corrupted modules: a
# group-like with a non-monomial entry and one that is not diagonal, both
# outside the view's points.
@pytest.mark.parametrize("n", (1, 3))
def test_centrality_matches_the_commutators(n):
    chev = build_chevalley_eval(n)
    d = [1 + R] + [ONE] * n
    for mod in (
        chev,
        specialize_module(chev, SpecMap("s_to_r")),
        chev.with_assign(W(1), Matrix.diagonal(d)),
        chev.with_assign(Wp(0), chev.get(Wp(0)) + chev.get(E(0))),
    ):
        plain = [
            f"[{g}, {h}] != 0"
            for g, gm in mod.assign.items()
            if g.kind in ("W", "Wp")
            for h, hm in mod.assign.items()
            if not (gm @ hm - hm @ gm).is_zero()
        ]
        assert centrality_report(mod)["failures"] == plain


# Every entry of the Chevalley evaluation module and of its table is a
# Laurent polynomial, whose image is its substituted numerator over its
# integer denominator (field.substitution): substitute_module divides no two
# rational functions, under every SpecMap and at a = B, where each entry's
# image was the quotient of its numerator's and its denominator's.
@pytest.mark.parametrize("n", (1, 4))
def test_substitute_module_takes_no_quotient(monkeypatch, n):
    mod = build_chevalley_eval(n)
    maps = [SpecMap(kind).subs() for kind in ("s_to_r_inverse", "s_to_r", "independent")]
    maps += [SpecMap("r_to_s_pow", k).subs() for k in (-3, 2)] + [{"a": B}]
    calls = 0
    truediv = RatFunc.__truediv__

    def counting(x, y):
        nonlocal calls
        calls += 1
        return truediv(x, y)

    monkeypatch.setattr(RatFunc, "__truediv__", counting)
    for subs in maps:
        substitute_module(mod, **subs)
    assert calls == 0


@pytest.mark.parametrize("n", range(1, 5))
def test_omega_eigenvalue_collapses(n):
    sp = specialize_module(build_chevalley_eval(n), SpecMap("s_to_r"))
    expected = Matrix.diagonal([R**n] * (n + 1))
    assert sp.get(W(1)) == expected
    assert sp.get(Wp(1)) == expected
    assert sp.get(W(0)) == expected


def test_quantum_int_specializes():
    assert quantum_int(2).substitute(s=R) == 2 * R
    assert quantum_int(4).substitute(s=R) == 4 * R**3


@pytest.mark.parametrize("n", range(1, 5))
def test_span_full_from_every_basis_vector(n):
    sp = specialize_module(build_chevalley_eval(n), SpecMap("s_to_r"))
    for i in range(n + 1):
        seed = [ONE if j == i else ZERO for j in range(n + 1)]
        assert len(span_closure(sp, seed)) == n + 1


def test_module_pole_detected():
    mod = build_chevalley_eval(1)
    bad = mod.with_assign(E(1), mod.get(E(1)).scale(ONE / (R - S)))
    with pytest.raises(SpecializationPole):
        specialize_module(bad, SpecMap("s_to_r"))


# -- s -> r^-1 and r -> s^k: suite re-runs ---------------------------------------------


@pytest.mark.parametrize("n", range(4))
def test_one_parameter_specialization_suite(n):
    sp = specialize_module(build_chevalley_eval(n), SpecMap("s_to_r_inverse"))
    assert all_pass(check_chevalley(sp))


@pytest.mark.parametrize("k", (-1, 0, 2, 3))
def test_r_to_s_pow_suite(k):
    sp = specialize_module(build_chevalley_eval(2), SpecMap("r_to_s_pow", k))
    if k == 1:
        return
    reports = check_chevalley(sp)
    assert all_pass(reports)


def test_specialized_module_keeps_actions():
    sp = specialize_module(build_chevalley_eval(2), SpecMap("s_to_r"))
    # e.v_1 = [2] v_0 -> 2r v_0
    assert sp.get(E(1)).apply([ZERO, ONE, ZERO]) == [2 * R, ZERO, ZERO]


# -- the images of r and s live in the pairing table -------------------------------------


@pytest.mark.parametrize("m", ("s=r^-1", "r=s^2", "r=s^-1"))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_rewrapped_specialized_module_keeps_its_verdicts(m, n):
    # the images of r and s are the table's, so a module built over a
    # specialized table decides R3 with the specialized 1/(r - s) and
    # tensors with the module it came from
    spec = specialize_module(build_chevalley_eval(n), parse_spec_map(m))
    rewrapped = MatrixModule(spec.table, spec.assign)
    assert _reports(check_chevalley(rewrapped)) == _reports(check_chevalley(spec))
    assert all_pass(check_chevalley(rewrapped))
    assert tensor(spec, rewrapped).table.rs == spec.table.rs


def _reports(reports):
    return [r.to_json() for r in reports]


def test_substitution_maps_the_parameter_images_with_the_entries():
    mod = build_chevalley_eval(2)
    assert mod.table.rs == (R, S)
    for subs, rs in (({"s": R**-1}, (R, R**-1)), ({"r": S**3}, (S**3, S)), ({"a": 1 + R}, (R, S))):
        img = substitute_module(mod, **subs)
        assert img.table.rs == rs
        assert img.table.entries == tuple(
            tuple(e.substitute(**subs) for e in row) for row in mod.table.entries
        )
    spec = specialize_module(mod, SpecMap("s_to_r_inverse"))
    with pytest.raises(TypeMismatch, match="^tensor factors live over different parameter images$"):
        tensor(mod, spec)
    with pytest.raises(TypeMismatch, match="^tensor factors live over different parameter images$"):
        tensor(spec, mod)


# -- pinned verdicts through the substitution homomorphism ------------------------------
#
# reports_at_pin runs a pinned check once, on the symbolic module, and maps
# the two sides of each symbolic failure through the pin, keeping those
# whose images differ.  The oracle is the direct path: the same check on the
# substituted module, which must give the same verdicts, failures and bytes.


PINS = ("1+r", "2+s", "r*s", "s^-2")
KMAX = LMAX = 2


def _direct(check, mod, **pins):
    return [r.to_json() for r in check(substitute_module(mod, **pins))]


def _helper(check, mod, **pins):
    return [r.to_json() for r in reports_at_pin(check, mod, **pins)]


def _drinfeld(mod):
    return check_drinfeld(mod, KMAX, LMAX)


@pytest.mark.parametrize("shift", (False, True), ids=("plain", "rs-inverse"))
@pytest.mark.parametrize("mutation", (None, "xplus", "e1scale", "xminus-scale"))
@pytest.mark.parametrize("pin", PINS)
def test_pinned_verdicts_match_the_direct_path(pin, mutation, shift):
    chev = build_chevalley_eval(2, shift)
    curr = build_current_eval(2, shift, kmax=KMAX, lmax=LMAX)
    if mutation:
        chev, curr = apply_mutation(chev, curr, mutation)
    a = parse(pin)
    for check, mod in ((check_chevalley, chev), (_drinfeld, curr)):
        assert _helper(check, mod, a=a) == _direct(check, mod, a=a)


@pytest.mark.parametrize("a,b", (("1+r", "2+s"), ("1", "s^-2"), ("1+r", "1+r")))
def test_pinned_tensor_verdicts_match_the_direct_path(a, b):
    sL = build_chevalley_eval(2)
    sR = substitute_module(build_chevalley_eval(1), a=B)
    pins = {"a": parse(a), "b": parse(b)}
    pinned = tensor(substitute_module(sL, a=pins["a"]), substitute_module(sR, b=pins["b"]))
    want = [r.to_json() for r in check_chevalley(pinned)]
    assert _direct(check_chevalley, tensor(sL, sR), **pins) == want
    assert _helper(check_chevalley, tensor(sL, sR), **pins) == want


@pytest.mark.parametrize("a,r3_fails", (("2", True), ("1", False)))
def test_failing_pinned_tensor_matches_the_direct_path(a, r3_fails):
    # the left factor with E(1) scaled by a, as below: R3 fails on the
    # symbolic tensor module, fails at a = 2 and holds at a = 1
    chev = build_chevalley_eval(2)
    sL = chev.with_assign(E(1), chev.get(E(1)).scale(A))
    sR = substitute_module(build_chevalley_eval(1), a=B)
    pins = {"a": parse(a), "b": parse("2+s")}
    assert not all_pass(check_chevalley(tensor(sL, sR)))
    pinned = tensor(substitute_module(sL, a=pins["a"]), substitute_module(sR, b=pins["b"]))
    want = [r.to_json() for r in check_chevalley(pinned)]
    assert _helper(check_chevalley, tensor(sL, sR), **pins) == want
    assert [r["relation_id"] for r in want if r["failures"]] == (["R3"] if r3_fails else [])


def test_symbolic_failure_that_holds_at_the_pin():
    # E(1) scaled by a: [E(1), F(1)] is a times the R3 right side, so R3
    # fails on the symbolic module and holds exactly at a = 1
    chev = build_chevalley_eval(2)
    bad = chev.with_assign(E(1), chev.get(E(1)).scale(A))
    symbolic = {r.relation_id: r for r in check_chevalley(bad)}
    assert [k for k, r in symbolic.items() if not r.passed] == ["R3"]

    at_one = reports_at_pin(check_chevalley, bad, a=ONE)
    assert all_pass(at_one)
    assert [r.to_json() for r in at_one] == _direct(check_chevalley, bad, a=ONE)

    at_two = _helper(check_chevalley, bad, a=parse("2"))
    assert at_two == _direct(check_chevalley, bad, a=parse("2"))
    assert [r["relation_id"] for r in at_two if r["failures"]] == ["R3"]


def _with_poles(mod):
    # conjugation by diag(1, a - 1, 1, ...) is an isomorphism, so every
    # relation still holds on the symbolic module, but entries of several
    # generators now have the denominator a - 1; the error names the first
    # of them in assignment order
    d = [ONE] * mod.dim
    d[1] = A - 1
    D, Dinv = Matrix.diagonal(d), Matrix.diagonal([x.inv() for x in d])
    for g in list(mod.assign):
        mod = mod.with_assign(g, D @ mod.get(g) @ Dinv)
    return mod


def test_pole_error_is_the_substitution_error():
    bad = _with_poles(build_chevalley_eval(2))
    # without the pole check, this symbolic pass would be taken as a pass at a = 1
    assert all_pass(check_chevalley(bad))
    with pytest.raises(SpecializationPole) as direct:
        substitute_module(bad, a=ONE)
    with pytest.raises(SpecializationPole) as helper:
        reports_at_pin(check_chevalley, bad, a=ONE)
    assert str(helper.value) == str(direct.value)
    first = next(
        g for g, m in bad.assign.items() if any(not x.is_laurent_polynomial() for row in m.rows for x in row)
    )
    assert str(direct.value).startswith(f"generator {first} has a pole")
    # away from the pole the entries are regular and the verdict is the pinned one
    assert _helper(check_chevalley, bad, a=parse("2")) == _direct(check_chevalley, bad, a=parse("2"))


def test_regularity_check_maps_no_matrix(monkeypatch):
    # the entries are walked where they are stored; only the sides of a
    # failure are mapped through the pin, and this check has none
    mapped = []
    map_entries = Matrix.map

    def spy(self, fn):
        mapped.append(self)
        return map_entries(self, fn)

    symbolic = tensor(build_chevalley_eval(2), substitute_module(build_chevalley_eval(1), a=B))
    monkeypatch.setattr(Matrix, "map", spy)
    reports = reports_at_pin(check_chevalley, symbolic, a=parse("1+r"), b=parse("2+s"))
    assert all_pass(reports)
    assert mapped == []


def test_zero_pin_takes_the_direct_path():
    # a^-1 is not regular at a = 0, and the symbolic module passes, so only
    # the direct path can give the answer: the substitution's error
    chev = build_chevalley_eval(1)
    with pytest.raises(DivisionByZero) as direct:
        substitute_module(chev, a=ZERO)
    with pytest.raises(DivisionByZero) as helper:
        reports_at_pin(check_chevalley, chev, a=ZERO)
    assert str(helper.value) == str(direct.value)


# -- loop twists through a -> c a ------------------------------------------------------
#
# The twist command decides the loop twist x+-(k) -> c^k x+-(k) as the pin
# a -> c a (the loop-twist lemma of reports_at_pin; gamma1 is c = -1).  The
# oracle builds the twisted module itself, its series derived again from the
# scaled currents (tests/twists.py).  The corruptions keep every current
# homogeneous of a-degree k, with the series derived from the corrupted
# currents, so the lemma holds for them too and their failures must map.

TWISTS = {"gamma1": None, **{f"gamma2 {c}": c for c in ("r*s", "a", "1+r", "2+s", "1/(r-s)", "1/a")}}
HOMOGENEOUS_CORRUPTIONS = {
    "clean": None,
    "x+(2) * 3": (Xp(1, 2), 3),
    "x-(-1) * rs": (Xm(1, -1), R * S),
}


@pytest.mark.parametrize("corruption", HOMOGENEOUS_CORRUPTIONS)
@pytest.mark.parametrize("twist", TWISTS)
def test_twist_verdicts_match_the_twisted_module(twist, corruption):
    c = -ONE if TWISTS[twist] is None else parse(TWISTS[twist])
    for n in range(4):
        for shift in (False, True):
            mod = build_current_eval(n, shift, kmax=KMAX, lmax=LMAX)
            if HOMOGENEOUS_CORRUPTIONS[corruption]:
                gen, factor = HOMOGENEOUS_CORRUPTIONS[corruption]
                mod = with_series(mod.with_assign(gen, mod.get(gen).scale(factor)), 2 * KMAX, LMAX)
            twisted = twist_gamma1(mod) if TWISTS[twist] is None else twist_gamma2(mod, c)
            want = [r.to_json() for r in _drinfeld(twisted)]
            assert _helper(_drinfeld, mod, a=c * A) == want
            # no failure holds at the pin, even where a -> c a is not injective
            symbolic = sum(len(r.mismatches) for r in _drinfeld(mod))
            assert sum(len(r["failures"]) for r in want) == symbolic
            assert (symbolic == 0) == (n == 0 or corruption == "clean")


def test_pole_error_on_the_command_line(capsys, monkeypatch):
    from rsaffine import cli

    build = cli.build_chevalley_eval
    monkeypatch.setattr(cli, "build_chevalley_eval", lambda n, shift=False: _with_poles(build(n, shift)))
    with pytest.raises(SpecializationPole) as direct:
        substitute_module(_with_poles(build(1)), a=ONE)
    code = cli.main(["verify", "--n", "1", "--a", "1", "--json"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_FAIL
    assert captured.out == ""
    assert captured.err == f"error: SpecializationPole: {direct.value}\n"


# Polynomial gcds, recursive ones included, made by the direct pinned path:
# build the n = 2 Chevalley and current modules (at the verify defaults
# kmax = 4, lmax = 3), substitute a = 1+r, then run check_chevalley and
# check_drinfeld on the substituted modules, where every entry has a real
# denominator.  `verify --a` decides a pass on the symbolic module, so this
# count is what guards the gcd arithmetic of pinned relation checks.  It is
# the count `verify --n 2 --a 1+r` made when it took this path.  Building the
# two sides of every unordered D6 pair made 3,474.  Reading the currents as
# x(0) D^k, with D = (1+r) times a monomial here, scales by powers of D once
# per family or index where every instance took full products; that made
# 3,194.  Deciding D6 by the commutation identities of x(0), with x(0)x(0)
# once per sign, and D7 once per m = k + k2, where the X(a)X(0) and
# x+(k)x-(0) products were scaled by powers of D per index and a right side
# built per D7 instance, made 2,230.  Dividing each weight's series
# logarithm by r - s while the symbolic current module was built made 742;
# the build now takes no gcd (sl2 docstring).  Scaling the D7 left side by
# r - s once per m, where x+(0)x-(0) and x-(0)x+(0) are now scaled once, made
# 684, and building the D5 family sides, where the verdict now reads the
# diagonal entries, 612.  Substituting the pin term by term, adding each
# term's power of 1+r to the sum one at a time, made 576; a class of terms
# with the same a-exponent now takes the power once, so the sum has fewer
# terms whose denominators need a gcd.  theta(l) of D5, built twice per l
# through a gcd, where it is now one exact division per l, made 477, and
# 453 before the field's division of one Laurent polynomial by another tried
# that exact division itself, ahead of its gcd.  Each neighbour difference
# a(e)_i - a(e)_j of D5 formed for the x+ family and again, as a_j - a_i,
# for the x- family, where the x- family now negates the x+ family's
# difference, made 451.
DIRECT_PINNED_PGCD_CALLS = 433


def test_direct_pinned_pgcd_count_tripwire(monkeypatch):
    import rsaffine.field as field

    calls = 0
    pgcd = field.pgcd

    def counting(p, q):
        nonlocal calls
        calls += 1
        return pgcd(p, q)

    monkeypatch.setattr(field, "pgcd", counting)
    chev = build_chevalley_eval(2)
    curr = build_current_eval(2, kmax=4, lmax=3)
    a = parse("1+r")
    reports = check_chevalley(substitute_module(chev, a=a))
    reports += check_drinfeld(substitute_module(curr, a=a), 4, 3)
    assert all_pass(reports)
    assert calls == DIRECT_PINNED_PGCD_CALLS
    assert calls < 9347
