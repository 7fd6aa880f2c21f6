"""Which rsaffine functions the traced run wraps, and the per-layer metrics
derived from their spans.

Every span name is "<module>.<function>" and yields "<name>.calls" and
"<name>.s" (self time).  The hooks below add the counts and ratios that
need the arguments or results of a call.
"""

from __future__ import annotations

from tracer import Tracer

# span name -> the (module[:Class], attribute) sites to patch.  A name that
# callers import with "from ... import" is patched in the importing module
# as well, since that is where they look it up.
SITES = {
    "_kernel.pmul": [("rsaffine._kernel", "pmul")],
    "_kernel.padd": [("rsaffine._kernel", "padd"), ("rsaffine._kernel", "psub")],
    "_kernel.pscale": [("rsaffine._kernel", "pscale")],
    "field.normalize": [("rsaffine.field:RatFunc", "_normalize")],
    "field.pgcd": [("rsaffine.field", "pgcd")],
    "field.substitute": [("rsaffine.field:RatFunc", "substitute")],
    "series.mul": [("rsaffine.series:TruncSeries", "__mul__"), ("rsaffine.series:TruncSeries", "__rmul__")],
    "series.inv": [("rsaffine.series:TruncSeries", "inv")],
    "series.log": [("rsaffine.series:TruncSeries", "log")],
    "matrix.matmul": [("rsaffine.matrix:Matrix", "__matmul__")],
    "matrix.rref": [("rsaffine.matrix", "rref"), ("rsaffine.hopf", "rref")],
    "matrix.kron": [("rsaffine.matrix:Matrix", "kron")],
    "matrix.apply": [("rsaffine.matrix:Matrix", "apply")],
    "matrix.inverse": [("rsaffine.matrix:Matrix", "inverse")],
    "rep_core.check_chevalley": [("rsaffine.rep_core", "check_chevalley"), ("rsaffine.cli", "check_chevalley")],
    "rep_core.check_drinfeld": [("rsaffine.rep_core", "check_drinfeld"), ("rsaffine.cli", "check_drinfeld")],
    "sl2.build_current_eval": [("rsaffine.sl2", "build_current_eval"), ("rsaffine.cli", "build_current_eval")],
    "sl2.omega_matrices": [("rsaffine.sl2", "omega_matrices"), ("rsaffine.drinfeld", "omega_matrices")],
    "sl2.recover_imaginary": [("rsaffine.sl2", "recover_imaginary")],
    "drinfeld.drinfeld_report": [("rsaffine.drinfeld", "drinfeld_report"), ("rsaffine.cli", "drinfeld_report")],
    "drinfeld.reconstruct_P": [("rsaffine.drinfeld", "reconstruct_P")],
    "drinfeld.verify_RQ_form": [("rsaffine.drinfeld", "verify_RQ_form"), ("rsaffine.cli", "verify_RQ_form")],
    "hopf.tensor": [("rsaffine.hopf", "tensor"), ("rsaffine.cli", "tensor")],
    "hopf.span_closure": [("rsaffine.hopf", "span_closure"), ("rsaffine.cli", "span_closure")],
    "specialize.specialize_module": [("rsaffine.specialize", "specialize_module"), ("rsaffine.cli", "specialize_module")],
    "cartan.build_pairing": [("rsaffine.cartan", "build_pairing"), ("rsaffine.cli", "build_pairing")],
    "cli.verify": [("rsaffine.cli", "cmd_verify")],
    "cli.drinfeld": [("rsaffine.cli", "cmd_drinfeld")],
    "cli.tensor": [("rsaffine.cli", "cmd_tensor")],
    "cli.specialize": [("rsaffine.cli", "cmd_specialize")],
    "cli.table": [("rsaffine.cli", "cmd_table")],
}

CLASSMETHODS = {"field.normalize"}

# Calls made while the package imports: sl2 builds the A1 pairing table.
IMPORT_TARGETS = {("cartan.py", "build_pairing"): "cartan.build_pairing"}

RELATION_IDS = ("R1", "R2", "R3", "R4", "D1", "D2", "D3", "D4", "D5_1", "D5_2", "D6", "D7")


def install(tracer: Tracer):
    """Patch every site in SITES, with the hooks that feed the counters."""
    counts, maxima, flags = tracer.counts, tracer.maxima, tracer.flags

    def pmul_before(args):
        p, q = args[0], args[1]
        counts["pmul.term_products"] += len(p) * len(q)
        maxima["pmul.max_terms"] = max(maxima["pmul.max_terms"], len(p), len(q))

    def normalize_after(idx, args, result):
        terms = len(result.num) + len(result.den)
        if terms > maxima["field.max_entry_terms"]:
            maxima["field.max_entry_terms"] = terms

    unit = {(0, 0, 0, 0): 1}  # the gcd of coprime polynomials

    def pgcd_after(idx, args, result):
        if result != unit:
            counts["pgcd.useful"] += 1

    def matmul_before(args):
        a, b = args[0], args[1]
        col = [sum(not a[i, j].is_zero() for i in range(a.n)) for j in range(a.m)]
        row = [sum(not b[j, k].is_zero() for k in range(b.m)) for j in range(b.n)]
        counts["matmul.nonzero_pairs"] += sum(c * r for c, r in zip(col, row))
        counts["matmul.pairs"] += a.n * a.m * b.m

    def rref_after(idx, args, result):
        if len(result[1]) == len(args[0]):
            flags["rref.grew"].add(idx)

    def reports_after(idx, args, result):
        for rep in result:
            rid = rep.relation_id
            counts[f"rep_core.{rid}.instances"] += rep.instances_checked
            counts[f"rep_core.{rid}.ms"] += rep.elapsed_ms

    hooks = {
        "_kernel.pmul": (pmul_before, None),
        "field.normalize": (None, normalize_after),
        "field.pgcd": (None, pgcd_after),
        "matrix.matmul": (matmul_before, None),
        "matrix.rref": (None, rref_after),
        "rep_core.check_chevalley": (None, reports_after),
        "rep_core.check_drinfeld": (None, reports_after),
    }
    for name, sites in SITES.items():
        before, after = hooks.get(name, (None, None))
        kind = "classmethod" if name in CLASSMETHODS else "function"
        tracer.patch(name, sites, before, after, kind=kind)


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(tracer: Tracer) -> dict:
    """name -> (value, unit) for every per-layer metric of the traced pass."""
    calls, selfs = tracer.self_times()
    out = {}
    for name in SITES:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.s"] = (selfs.get(name, 0.0), "s")
    c, mx = tracer.counts, tracer.maxima
    out["_kernel.pmul.term_products"] = (c["pmul.term_products"], "count")
    out["_kernel.pmul.max_terms"] = (mx["pmul.max_terms"], "count")
    out["field.max_entry_terms"] = (mx["field.max_entry_terms"], "count")
    out["field.pgcd.useful_ratio"] = (_ratio(c["pgcd.useful"], calls.get("field.pgcd", 0)), "ratio")
    norm_parents = {p for p in tracer.parents_of("field.pgcd") if tracer.is_named(p, "field.normalize")}
    out["field.normalize.gcd_ratio"] = (_ratio(len(norm_parents), calls.get("field.normalize", 0)), "ratio")
    out["matrix.matmul.nonzero_pair_ratio"] = (_ratio(c["matmul.nonzero_pairs"], c["matmul.pairs"]), "ratio")
    rref_nid = tracer.name_id("matrix.rref")
    in_closure = [
        i
        for i, p in enumerate(tracer.span_parent)
        if tracer.span_name[i] == rref_nid and tracer.is_named(p, "hopf.span_closure")
    ]
    grew = sum(1 for i in in_closure if i in tracer.flags["rref.grew"])
    out["hopf.span_closure.useful_ratio"] = (_ratio(grew, len(in_closure)), "ratio")
    for rid in RELATION_IDS:
        out[f"rep_core.{rid}.instances"] = (c[f"rep_core.{rid}.instances"], "count")
        out[f"rep_core.{rid}.s"] = (c[f"rep_core.{rid}.ms"] / 1000.0, "s")
    return out


def count_metrics(values: dict) -> dict:
    """The deterministic counts compared against count_baseline.json."""
    return {
        k: v
        for k, v in values.items()
        if k.endswith((".calls", ".instances")) or k == "_kernel.pmul.term_products"
    }
