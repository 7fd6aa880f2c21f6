"""Batch command-line surface.

Subcommands: verify, drinfeld, table, specialize, tensor, twist.  Every
command prints a human-readable summary or, with --json, a byte-stable JSON
document (canonical rendering makes repeated runs identical).  Exit codes:
0 all checks pass, 1 a mathematical check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .cartan import build_pairing, parse_type, table_to_json
from .drinfeld import drinfeld_report, verify_RQ_form
from .errors import LatticeOverflow, ParseError, RsaffineError, UnsupportedRank
from .field import ONE, ZERO, A, B, RatFunc, parse, render, substitution
from .hopf import exact_span_closure, full_span_certified, tensor, tensor_basis_vector, twist_sigma
from .rep_core import XM_KIND, XP_KIND, all_pass, check_chevalley, check_drinfeld
from .sl2 import build_chevalley_eval, build_current_eval, build_series_eval
from .specialize import (
    centrality_report,
    parse_spec_map,
    reports_at_pin,
    specialize_module,
    substitute_module,
)

MAX_N = 12
MAX_KMAX = 8
MAX_ORDER = 16
# drinfeld reconstructs P of degree n from a series of order >= 2n+1
MAX_DRINFELD_N = (MAX_ORDER - 1) // 2

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _drinfeld_order(n: int, order) -> int:
    """The series order of the drinfeld command: --order when given, else
    max(8, 2n+2)."""
    low = 2 * n + 1
    if order is None:
        return max(8, low + 1)
    if not (low <= order <= MAX_ORDER):
        raise UsageError(f"--order must be in {low}..{MAX_ORDER} for --n {n}")
    return order


def _check_bounds(n=None, kmax=None, lmax=None, max_n=MAX_N, n_flag="--n"):
    if n is not None and not (0 <= n <= max_n):
        raise UsageError(f"{n_flag} must be in 0..{max_n}")
    if kmax is not None and not (1 <= kmax <= MAX_KMAX):
        raise UsageError(f"--kmax must be in 1..{MAX_KMAX}")
    # a contract, not a need of the build: each a(l) is read off the
    # telescoped per-weight form in closed form, at the same cost for every
    # l, and the series to order 2*kmax (sl2.build_current_eval), which
    # keeps lmax <= 2*kmax as the same contract
    if lmax is not None and not (1 <= lmax <= 2 * kmax):
        raise UsageError(f"--lmax must be in 1..{2 * kmax} (twice --kmax)")


def _parse_type(text: str):
    try:
        return parse_type(text)
    except UnsupportedRank as exc:
        raise UsageError(f"--type {text!r}: {exc}") from None


# characters of a refused argument echoed on each side of the error position
ECHO_WIDTH = 40


def _echo(text: str, pos: int = 0) -> str:
    """text quoted once, cut to ECHO_WIDTH characters on each side of pos."""
    lo, hi = max(pos - ECHO_WIDTH, 0), pos + ECHO_WIDTH
    return repr(("..." if lo else "") + text[lo:hi] + ("..." if hi < len(text) else ""))


def _parse_scalar(text: str, flag: str) -> RatFunc:
    try:
        value = parse(text)
    except (ValueError, ZeroDivisionError, LatticeOverflow) as exc:
        pos = exc.pos if isinstance(exc, ParseError) else 0
        raise UsageError(f"{flag}: cannot parse scalar {_echo(text, pos)}: {exc}") from None
    if value.is_zero():
        raise UsageError(f"{flag}: parameter pins must be nonzero")
    return value


def _emit(doc: dict, as_json: bool, lines):
    if as_json:
        print(json.dumps(doc, sort_keys=True, indent=1))
    else:
        for line in lines:
            print(line)


# -- commands -------------------------------------------------------------------


def cmd_verify(args) -> int:
    _check_bounds(n=args.n, kmax=args.kmax, lmax=args.lmax)
    t = _parse_type(args.type)
    if t.family != "A" or t.rank != 1:
        raise UsageError("verify currently drives the rank-1 evaluation modules")

    shift = args.shift == "rs-inverse"
    chev = build_chevalley_eval(args.n, shift)
    curr = build_current_eval(args.n, shift, kmax=args.kmax, lmax=args.lmax)
    a = None if args.a is None else _parse_scalar(args.a, "--a")

    reports = reports_at_pin(check_chevalley, chev, a=a) + reports_at_pin(
        lambda mod: check_drinfeld(mod, args.kmax, args.lmax), curr, a=a
    )
    ok = all_pass(reports)
    doc = {
        "command": "verify",
        "type": str(t),
        "n": args.n,
        "shift": args.shift,
        "kmax": args.kmax,
        "lmax": args.lmax,
        "pass": ok,
        "reports": [r.to_json() for r in reports],
    }
    lines = [f"verify {t} n={args.n} shift={args.shift}"]
    for r in reports:
        status = "ok" if r.passed else f"{len(r.mismatches)} FAILURES"
        lines.append(f"  {r.relation_id:5s} {r.instances_checked:4d} instances  {status}")
    lines.append("PASS" if ok else "FAIL")
    _emit(doc, args.json, lines)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_drinfeld(args) -> int:
    _check_bounds(n=args.n, max_n=MAX_DRINFELD_N)
    order = _drinfeld_order(args.n, args.order)
    shift = args.shift == "rs-inverse"
    # the RQ closed form is stated for the shifted module, which a shifted
    # run also reads its polynomials from
    shifted = build_series_eval(args.n, True, order)
    doc = drinfeld_report(args.n, shift, order=order, mod=shifted if shift else None)
    rq = verify_RQ_form(shifted, order=order)
    doc["command"] = "drinfeld"
    doc["RQ"] = [
        {"i": e["i"], "pass": e["pass"] and e["prefactor_consistent"]}
        for e in rq["per_weight"]
    ]
    ok = (
        doc["checks"]["plus"] == "pass"
        and doc["checks"]["minus"] == "pass"
        and doc["checks"]["matches_closed_form"]
        and all(e["pass"] for e in doc["RQ"])
    )
    doc["pass"] = ok
    lines = [
        f"drinfeld n={args.n} shift={doc['shift']} order={order}",
        f"  P = {doc['P']}",
        f"  Q = {doc['Q']}",
        f"  plus: {doc['checks']['plus']}  minus: {doc['checks']['minus']}"
        f"  closed-form match: {doc['checks']['matches_closed_form']}",
        f"  per-weight RQ: {['ok' if e['pass'] else 'FAIL' for e in doc['RQ']]}",
        "PASS" if ok else "FAIL",
    ]
    _emit(doc, args.json, lines)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_table(args) -> int:
    t = build_pairing(_parse_type(args.type))
    doc = table_to_json(t)
    doc["command"] = "table"
    _emit(doc, args.json, () if args.json else _table_lines(t))
    return EXIT_PASS


def _table_lines(t):
    """The text form of a pairing table: its entries in columns of one width."""
    width = max(len(render(e)) for row in t.entries for e in row)
    lines = [f"quantum Cartan matrix for {t.type}"]
    for row in t.entries:
        lines.append("  " + "  ".join(render(e).ljust(width) for e in row))
    for d in t.diagnostics:
        lines.append(f"  note: {d}")
    return lines


def cmd_specialize(args) -> int:
    _check_bounds(n=args.n)
    try:
        sm = parse_spec_map(args.map)
    except ValueError as exc:
        raise UsageError(f"--map: cannot parse specialization map {_echo(args.map)}: {exc}") from None
    mod = specialize_module(build_chevalley_eval(args.n), sm)
    doc = {
        "command": "specialize",
        "map": args.map,
        "n": args.n,
        "table": [[render(e) for e in row] for row in mod.table.entries],
    }
    lines = [f"specialize {args.map} on the (n+1)-dimensional module, n={args.n}"]
    if sm.kind == "s_to_r":
        cent = centrality_report(mod)
        seeds = [[ONE if j == i else ZERO for j in range(mod.dim)] for i in range(mod.dim)]
        full = all(
            certified or len(exact_span_closure(mod, seed)) == mod.dim
            for certified, seed in zip(full_span_certified(mod, seeds), seeds)
        )
        ok = not cent["failures"] and full
        doc["centrality"] = {"pass": not cent["failures"], "checked": cent["checked"]}
        doc["span_full_from_every_basis_vector"] = full
        lines.append(f"  group-likes central: {not cent['failures']}")
        lines.append(f"  span closure full from every basis vector: {full}")
    else:
        reports = check_chevalley(mod)
        ok = all_pass(reports)
        doc["reports"] = [r.to_json() for r in reports]
        for r in reports:
            lines.append(
                f"  {r.relation_id:3s} {r.instances_checked:3d} instances  "
                + ("ok" if r.passed else "FAIL")
            )
    doc["pass"] = ok
    lines.append("PASS" if ok else "FAIL")
    _emit(doc, args.json, lines)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_tensor(args) -> int:
    _check_bounds(n=args.left, n_flag="--left")
    _check_bounds(n=args.right, n_flag="--right")
    sL = build_chevalley_eval(args.left)
    # the right factor carries the second parameter
    sR = substitute_module(build_chevalley_eval(args.right), a=B)
    a = None if args.a is None else _parse_scalar(args.a, "--a")
    b = None if args.b is None else _parse_scalar(args.b, "--b")
    T = tensor(sL, sR)
    reports = reports_at_pin(check_chevalley, T, a=a, b=b)
    ok = all_pass(reports)
    seed = tensor_basis_vector(sL, sR, 0, 0)
    # the closure's rank can drop at a pin: a full span is certified on the
    # symbolic module at the pins' values (hopf.span_closure), and only a
    # closure that is not certified builds the pinned module, which is the
    # image of the symbolic one since sL holds no b and sR no a
    (full,) = full_span_certified(T, [seed], a=a, b=b)
    if full:
        closure_dim = T.dim
    else:
        mL = sL if a is None else substitute_module(sL, a=a)
        mR = sR if b is None else substitute_module(sR, b=b)
        closure_dim = len(exact_span_closure(tensor(mL, mR), seed))
    doc = {
        "command": "tensor",
        "left": args.left,
        "right": args.right,
        "dim": T.dim,
        "closure_dim_from_highest_weight": closure_dim,
        "relations_pass": ok,
        "reports": [r.to_json() for r in reports],
        "pass": ok,
    }
    lines = [
        f"tensor V_{args.left}(a) (x) V_{args.right}(b): dim {T.dim}",
        f"  closure of v_0 (x) v_0: dimension {closure_dim}",
        f"  relation suite: {'ok' if ok else 'FAIL'}",
        "PASS" if ok else "FAIL",
    ]
    _emit(doc, args.json, lines)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_twist(args) -> int:
    _check_bounds(n=args.n, kmax=args.kmax, lmax=args.lmax)
    if args.aut == "gamma2" and args.c is None:
        raise UsageError("--aut gamma2 needs --c")
    if args.c is not None and args.aut != "gamma2":
        raise UsageError("--c applies only to --aut gamma2")
    if args.signs is not None and args.aut != "sigma":
        raise UsageError("--signs applies only to --aut sigma")
    shift = args.shift == "rs-inverse"
    if args.aut == "sigma":
        chev = build_chevalley_eval(args.n, shift)
        signs = "+" * chev.table.size if args.signs is None else "".join(args.signs)
        if len(signs) != chev.table.size or set(signs) - {"+", "-"}:
            raise UsageError(f"--signs needs {chev.table.size} characters, each + or -")
        tw = twist_sigma(chev, tuple(1 if ch == "+" else -1 for ch in signs))
        ok = all_pass(check_chevalley(tw))
        entrywise = None
    else:
        # x+-(k) -> c^k x+-(k) is the reparameterization a -> c a (gamma1 is
        # c = -1), so the twisted verdicts are the symbolic ones mapped
        # through that substitution (specialize.reports_at_pin)
        c = _parse_scalar(args.c, "--c") if args.aut == "gamma2" else -ONE
        ca = c * A
        mod = build_current_eval(args.n, shift, kmax=args.kmax, lmax=args.lmax)
        reports = reports_at_pin(lambda m: check_drinfeld(m, args.kmax, args.lmax), mod, a=ca)
        at_ca = substitution(a=ca)
        entrywise = all(
            mat.scale(c**g.k) == mat.map(at_ca)
            for g, mat in mod.assign.items()
            if g.kind in (XP_KIND, XM_KIND)
        )
        ok = all_pass(reports) and entrywise
    doc = {
        "command": "twist",
        "aut": args.aut,
        "n": args.n,
        "pass": ok,
        "matches_reparameterized_module": entrywise,
    }
    lines = [f"twist {args.aut} on the n={args.n} module"]
    if entrywise is not None:
        lines.append(f"  equals the reparameterized module entrywise: {entrywise}")
    lines.append("PASS" if ok else "FAIL")
    _emit(doc, args.json, lines)
    return EXIT_PASS if ok else EXIT_FAIL


# -- argument wiring ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rsaffine",
        description="Exact verification and Drinfeld-polynomial computations "
        "for two-parameter affine quantum algebras",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the full relation suite on evaluation modules")
    v.add_argument("--type", default="A1")
    v.add_argument("--n", type=int, default=1)
    v.add_argument("--shift", choices=("plain", "rs-inverse"), default="plain")
    v.add_argument("--kmax", type=int, default=4)
    v.add_argument("--lmax", type=int, default=3)
    v.add_argument("--a", help="pin the evaluation parameter to an exact scalar")
    v.add_argument("--json", action="store_true")

    d = sub.add_parser("drinfeld", help="reconstruct the polynomial pair and verify it")
    d.add_argument("--n", type=int, default=1)
    d.add_argument("--shift", choices=("plain", "rs-inverse"), default="plain")
    d.add_argument("--order", type=int, default=None)
    d.add_argument("--json", action="store_true")

    t = sub.add_parser("table", help="print a quantum Cartan matrix")
    t.add_argument("--type", required=True)
    t.add_argument("--json", action="store_true")

    s = sub.add_parser("specialize", help="specialize the parameters and re-check")
    s.add_argument("--map", required=True, help="s=r | s=r^-1 | r=s^k | independent")
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--json", action="store_true")

    x = sub.add_parser("tensor", help="coproduct tensor module and closure dimension")
    x.add_argument("--left", type=int, required=True)
    x.add_argument("--right", type=int, required=True)
    x.add_argument("--a")
    x.add_argument("--b")
    x.add_argument("--json", action="store_true")

    w = sub.add_parser("twist", help="apply an automorphism twist and re-check")
    w.add_argument("--aut", choices=("sigma", "gamma1", "gamma2"), required=True)
    w.add_argument("--n", type=int, default=1)
    w.add_argument("--c", help="scalar for gamma2 only (exact expression)")
    w.add_argument(
        "--signs",
        nargs="+",
        help="signs for sigma only, one + or - per node (default all +), as one "
        "or more tokens that are joined: +-, + -, - - or --signs=-+",
    )
    w.add_argument("--shift", choices=("plain", "rs-inverse"), default="plain")
    w.add_argument("--kmax", type=int, default=2)
    w.add_argument("--lmax", type=int, default=2)
    w.add_argument("--json", action="store_true")

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call to main and kept: parsing leaves
    no state on it, since every call fills a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        # looked up per call, so a command replaced on the module is the one run
        return globals()[f"cmd_{args.command}"](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RsaffineError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
