"""The four benchmark workloads: their op lists, seeds and output checks.

Each workload is a closed loop run by one process on one thread: an op
starts when the previous one returns.  A pass runs the workload's op list
once; the seed fixes the order of the ops in a pass and, for ``pinned``,
the exact scalars the ops pin.  The program receives only the generated
argv (or, for the two library ops of ``series``, the generated arguments).
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass

WORKLOADS = ("verify", "series", "pinned", "closure")

# One line per workload: why it is in the benchmark.
WHY = {
    "verify": "the main user command; dense 9-13-dim matmul over Laurent "
    "polynomials, pmul-bound, n=12 shows how cost scales with n",
    "series": "truncated-series mul/inv/log on large polynomials; exercises "
    "the coefficient arithmetic and bypasses the matrix layer",
    "pinned": "non-monomial pins give every entry a real denominator, so "
    "gcd-based normalization dominates instead of products",
    "closure": "rref inside span closure and kron-built tensor modules; "
    "elimination rather than products, plus specialize and cartan",
}

# Why ``series`` calls two library functions directly for n >= 4: the CLI
# ``drinfeld`` caps its RQ check at order 6 while the polynomials it feeds
# that check have degree n+2i, so ``drinfeld --n 4`` (and 5, 6, 7) exits 1
# with a ValueError traceback ("more coefficients than the order admits").
# That crash is a known defect of the program and is left standing; these
# ops can move to the CLI once it is fixed.
SERIES_NOTE = (
    "n>=4 uses drinfeld_report and verify_RQ_form directly because the CLI "
    "drinfeld caps the RQ order at 6 and raises ValueError there"
)

DEFAULT_SEED = 0
# With the default seed the pins are exactly these: C, C1, C2.
DEFAULT_PINS = ("1+r", "1+r", "2+s")


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    kind is "cli" (args is the argv of rsaffine.cli.main), "drinfeld_report"
    (args is (n, order)) or "rq" (args is (n, order): verify_RQ_form on the
    module that cmd_drinfeld builds for that order).
    """

    kind: str
    args: tuple
    largest: bool = False

    @property
    def name(self) -> str:
        if self.kind == "cli":
            return " ".join(self.args)
        n, order = self.args
        return f"{self.kind} n={n} order={order}"


def draw_pins(seed: int):
    """The scalars C, C1, C2, each c0 + c1*x with c0 and c1 drawn from 1..2.

    The variable of each pin is fixed, C and C1 in r and C2 in s, so that
    every seed costs about the same: when both tensor pins are in the same
    variable, or C is 2+s or 3+r, the exact arithmetic does 5-8x the term
    products of the default pins.
    """
    if seed == DEFAULT_SEED:
        return DEFAULT_PINS
    rng = random.Random(seed)
    out = []
    for x in "rrs":
        c0, c1 = rng.randint(1, 2), rng.randint(1, 2)
        out.append(f"{c0}+{x}" if c1 == 1 else f"{c0}+{c1}*{x}")
    return tuple(out)


def _cli(*argv, largest=False):
    return Op("cli", tuple(str(a) for a in argv), largest)


def build_ops(workload: str, seed: int):
    """The op list of one pass of a workload, in seed order."""
    if workload == "verify":
        ops = [_cli("verify", "--n", n, "--json", largest=(n == 12)) for n in (2, 4, 8, 12)]
    elif workload == "series":
        ops = [_cli("drinfeld", "--n", n, "--json") for n in (1, 2, 3)]
        ops += [Op("drinfeld_report", (n, 2 * n + 2)) for n in range(4, 8)]
        ops += [Op("rq", (n, 3 * n), largest=(n == 6)) for n in range(2, 7)]
    elif workload == "pinned":
        c, c1, c2 = draw_pins(seed)
        ops = [
            _cli("verify", "--n", 2, "--a", c, "--json"),
            _cli("verify", "--n", 3, "--kmax", 3, "--lmax", 3, "--a", c, "--json", largest=True),
            _cli("tensor", "--left", 3, "--right", 3, "--a", c1, "--b", c2, "--json"),
        ]
    elif workload == "closure":
        ops = [_cli("tensor", "--left", L, "--right", L, "--json", largest=(L == 4)) for L in (2, 3, 4)]
        ops += [_cli("specialize", "--map", m, "--n", 8, "--json") for m in ("s=r", "s=r^-1", "r=s^2", "independent")]
        ops += [_cli("table", "--type", t, "--json") for t in ("A4", "B4", "C4", "D5", "E6", "F4", "G2")]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(ops)
    return ops


# -- running and checking ------------------------------------------------------


def run_op(op: Op):
    """Run one op in this process and return what its check reads."""
    if op.kind == "cli":
        from rsaffine import cli

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(list(op.args))
        return {"exit": code, "stdout": buf.getvalue()}
    n, order = op.args
    if op.kind == "drinfeld_report":
        from rsaffine import drinfeld

        return drinfeld.drinfeld_report(n, order=order)
    if op.kind == "rq":
        from rsaffine import drinfeld, sl2

        em = sl2.build_current_eval(n, True, kmax=max(1, (order + 1) // 2), lmax=1)
        return drinfeld.verify_RQ_form(em, order=order)
    raise ValueError(f"unknown op kind {op.kind!r}")


def summarize(op: Op, out) -> dict:
    """The recorded form of an op's output (see expected.json)."""
    if op.kind == "cli":
        return {"sha256": hashlib.sha256(out["stdout"].encode()).hexdigest()}
    if op.kind == "drinfeld_report":
        return {"P": out["P"], "Q": out["Q"], "checks": out["checks"]}
    return {"per_weight": [[e["i"], e["pass"], e["prefactor_consistent"]] for e in out["per_weight"]]}


class Checker:
    """Decides whether an op's output is correct.

    CLI ops whose argv was recorded must reproduce the recorded sha256 of
    their --json bytes; library ops must reproduce the recorded P, Q and
    per-weight RQ verdicts.  Every verify and tensor op (pinned ones with
    any seed included) must also report pass: true with instance counts
    equal to chevalley_instance_counts / drinfeld_instance_counts.
    """

    def __init__(self, expected: dict):
        from rsaffine.cartan import build_pairing, parse_type

        self.expected = expected
        self.table = build_pairing(parse_type("A1"))

    def _instance_counts(self, doc):
        from rsaffine.rep_core import chevalley_instance_counts, drinfeld_instance_counts

        want = dict(chevalley_instance_counts(self.table))
        if doc["command"] == "verify":
            want.update(drinfeld_instance_counts(doc["kmax"], doc["lmax"]))
        return want

    def check(self, op: Op, out) -> str | None:
        """None when the output is correct, else a one-line reason."""
        recorded = self.expected.get(op.name)
        if op.kind == "cli":
            if out["exit"] != 0:
                return f"exit code {out['exit']}"
            doc = json.loads(out["stdout"])
            if doc.get("command") in ("verify", "tensor"):
                if doc.get("pass") is not True:
                    return "pass is not true"
                want = self._instance_counts(doc)
                got = {r["relation_id"]: r["instances_checked"] for r in doc["reports"]}
                if got != want:
                    return f"instance counts {got} != {want}"
        elif op.kind == "drinfeld_report":
            if out["checks"] != {"plus": "pass", "minus": "pass", "matches_closed_form": True}:
                return f"checks {out['checks']}"
        elif not out["all_pass"]:
            return "verify_RQ_form all_pass is false"
        if recorded is not None and summarize(op, out) != recorded:
            return "output differs from the recorded output"
        if recorded is None and not (op.kind == "cli" and op.args[0] in ("verify", "tensor")):
            return "no recorded output to check against"
        return None
