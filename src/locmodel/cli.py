"""Command-line verification harness.

Subcommands: adm, perm, compare-adm-perm, count, enumerate,
verify strata|torsor|symplectic|matrix, run-suite.

Exit codes: 0 pass, 1 verification failure (two standard points with
one signature included), 2 usage error (a --budget or LOCMODEL_BUDGET
that is not a positive integer, and a manifest block lacking a parameter
its case needs, included), 3 budget exceeded, 4 unexpected internal
error (one line on stderr, no traceback).  The report schema is
{case, params, rows:[{w:{word, omega, translation, finite}, length,
predicted, observed, source}], totals, pass, elapsed_ms}; CSV mirrors
the rows, text is a human-readable table.  Output is deterministic for
fixed inputs except for the elapsed_ms field.

--budget N (else LOCMODEL_BUDGET, else 10^7) is one cumulative allowance
of work per case, and per block of run-suite.  Each stage spends its own
unit: subspaces enumerated, slot options visited by the chain backtracker
(for the naive and unramified points, past the first label, only those
that contain the images of the labels before), Bruhat ideal elements
formed by adm, displacement candidates counted by
perm (one per pair of a hull point and a finite part u whose residues make
the translation integral, all spent before the first is formed),
double-coset members formed by count's Poincare quotient (the stratum
counts spend nothing), and symmetric or symplectic matrices scanned by
verify matrix.  adm and perm also exit 3, spending nothing, before they
form an orbit of mu (adm), a W_0 or a box of hull points (perm) that
does not fit in what is left.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
import time
from json.encoder import encode_basestring_ascii as _quote

from .errors import ArtifactError, Budget, BudgetExceeded, ManifestParseError, SignatureCollision
from .weyl import Coweight, ParahoricSpec, RootDatum, length, reduced_word, translation
from .admissible import adm_set, perm_set, poincare_quotient, stratum_count
from . import latmod, matschemes


# ---------------------------------------------------------------------------
# parameter plumbing


def _ints(text):
    try:
        return tuple(int(x) for x in str(text).split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _datum(params) -> RootDatum:
    group = params.get("group", "gl").lower()
    if group == "gl":
        return RootDatum("GL", int(params["d"]))
    if group == "gsp":
        return RootDatum("GSp", int(params["g"]))
    raise ValueError(f"unknown group {params['group']!r}")


def _spec(datum, params) -> ParahoricSpec:
    if params.get("iwahori"):
        return ParahoricSpec(datum, frozenset(datum.vertex_labels))
    return ParahoricSpec(datum, frozenset(_ints(params["I"])))


def _model(params):
    datum = _datum(params)
    r_vec = _ints(params["r"]) if params.get("r") is not None else None
    return latmod.build_model(datum.kind, datum.n, int(params["e"]), _spec(datum, params).I, int(params["p"]), r_vec)


def _mu_from_model(model) -> Coweight:
    """The coweight whose admissible set stratifies the model: the sum
    of the minuscule coweights omega_{r_l} for GL, e * mu_1 for GSp."""
    datum = RootDatum(model.kind, model.n)
    if model.kind == "GL":
        mu = [0] * model.n
        for r in model.r_vec:
            for i in range(r):
                mu[i] += 1
        return Coweight(datum, tuple(mu))
    return Coweight(datum, (model.e,) * model.n + (model.e,))


def _cycle_notation(w) -> str:
    """One-line cycle notation of the finite part (signed for GSp), read
    off the window: position i goes to (w(i) - 1) mod N + 1, and for GSp
    the position N+1-j is labelled -j and the cycles start at 1, -1, 2,
    -2, ..."""
    win = w.w
    N = len(win)
    if w.datum.kind == "GL":
        labels, starts = range(1, N + 1), range(N)
    else:
        g = N // 2
        labels = [*range(1, g + 1), *range(-g, 0)]
        starts = [i for j in range(g) for i in (j, N - 1 - j)]
    image = [(v - 1) % N for v in win]
    seen = [False] * N
    cycles = []
    for start in starts:
        if seen[start] or image[start] == start:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(str(labels[i]))
            i = image[i]
        cycles.append("(" + " ".join(cyc) + ")")
    return "".join(cycles) or "()"


def _serialize_element(w):
    word, om = reduced_word(w)
    return {
        "word": list(word),
        "omega": om,
        "translation": ",".join(str(x) for x in w.lam),
        "finite": _cycle_notation(w),
    }


def _class_row(c, predicted=None, observed=None, source=None):
    w = c.min_rep
    return {
        "w": _serialize_element(w),
        "length": length(w),
        "predicted": predicted,
        "observed": observed,
        "source": source,
    }


def _class_sort_key(c):
    return (length(c.min_rep), c.min_rep.lam, c.min_rep.u)


# ---------------------------------------------------------------------------
# case runners


def _report(case, params, rows, totals, passed, t0):
    return {
        "case": case,
        "params": {k: v for k, v in sorted(params.items()) if v is not None},
        "rows": rows,
        "totals": totals,
        "pass": bool(passed),
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
    }


def _run_set(case, build, params, budget):
    t0 = time.monotonic()
    datum = _datum(params)
    s = build(_spec(datum, params), Coweight(datum, _ints(params["mu"])), budget)
    rows = [
        _class_row(c, source=f"admissible.{case}_set")
        for c in sorted(s.classes, key=_class_sort_key)
    ]
    return _report(case, params, rows, {"predicted": None, "observed": len(rows)}, True, t0)


def run_adm(params, budget=None):
    return _run_set("adm", adm_set, params, budget)


def run_perm(params, budget=None):
    return _run_set("perm", perm_set, params, budget)


def run_compare(params, budget=None):
    t0 = time.monotonic()
    datum = _datum(params)
    spec = _spec(datum, params)
    mu = Coweight(datum, _ints(params["mu"]))
    a = adm_set(spec, mu, budget).classes
    b = perm_set(spec, mu, budget).classes
    rows = [
        _class_row(
            c,
            predicted=int(c in a),
            observed=int(c in b),
            source="admissible.adm_set/perm_set",
        )
        for c in sorted(a | b, key=_class_sort_key)
    ]
    totals = {"predicted": len(a), "observed": len(b)}
    return _report("compare-adm-perm", params, rows, totals, a == b, t0)


def run_count(params, budget=None):
    """Predicted: stratum_count, in closed form.  Observed:
    poincare_quotient, over all the members of each class; a quotient
    that leaves a remainder is None and fails the case."""
    t0 = time.monotonic()
    datum = _datum(params)
    spec = _spec(datum, params)
    mu = Coweight(datum, _ints(params["mu"]))
    q = int(params["p"])
    s = adm_set(spec, mu, budget)
    rows = []
    for c in sorted(s.classes, key=_class_sort_key):
        n = stratum_count(c, q)
        observed = poincare_quotient(c, q, budget)
        rows.append(_class_row(c, predicted=n, observed=observed, source="admissible.stratum_count"))
    ok = all(row["predicted"] == row["observed"] for row in rows)
    totals = {k: sum(row[k] or 0 for row in rows) for k in ("predicted", "observed")}
    return _report("count", params, rows, totals, ok, t0)


def _subspace_dump(sub):
    return [list(row) for row in sub.rows]


def run_enumerate(params, budget=None):
    t0 = time.monotonic()
    model = _model(params)
    what = params.get("points", "naive")
    rows = []
    if what == "naive":
        pts = latmod.naive_points(model, budget=budget)
        src = "latmod.naive_points"
    elif what == "canonical":
        pts = latmod.canonical_points(model, budget=budget)
        src = "latmod.canonical_points"
    elif what == "splitting":
        pts = latmod.splitting_points(model, budget=budget)
        src = "latmod.splitting_points"
    elif what == "unramified":
        pts = latmod.unramified_points(model, int(params["l"]), budget=budget)
        src = "latmod.unramified_points"
    else:
        raise ValueError(f"unknown point kind {what!r}")
    for pt in pts:
        if what == "splitting":
            dump = {str(t): [_subspace_dump(f) for f in fs] for t, fs in pt.flags.items()}
        else:
            dump = {str(t): _subspace_dump(s) for t, s in pt.subspaces.items()}
        rows.append({"point": dump, "source": src})
    totals = {"predicted": None, "observed": len(rows)}
    return _report(f"enumerate-{what}", params, rows, totals, True, t0)


def _classify(params, budget):
    """Shared core of verify strata and verify symplectic: the model's
    canonical points classified into the strata of adm(mu), one row per
    stratum with its predicted and observed count.  Returns (adm set,
    rows, totals, ok), ok when every stratum matches and no point is
    unmatched."""
    model = _model(params)
    q = model.field.p
    mu = _mu_from_model(model)
    s = adm_set(ParahoricSpec(mu.datum, frozenset(model.I)), mu, budget)
    naive = list(latmod.naive_points(model, budget=budget))
    canonical = [pt for pt in naive if latmod.has_splitting_flag(pt, budget=budget)]
    rep = latmod.classify_strata(canonical, s, model)
    observed = dict(rep.rows)
    rows = []
    ok = rep.unmatched == 0
    for c in sorted(s.classes, key=_class_sort_key):
        pred = stratum_count(c, q)
        obs = observed.get(c, 0)
        ok = ok and pred == obs
        rows.append(_class_row(c, predicted=pred, observed=obs, source="latmod.classify_strata"))
    totals = {
        "predicted": sum(row["predicted"] for row in rows),
        "observed": len(canonical),
        "naive": len(naive),
        "canonical": len(canonical),
        "unmatched": rep.unmatched,
    }
    return s, rows, totals, ok


def run_verify_strata(params, budget=None):
    t0 = time.monotonic()
    _, rows, totals, ok = _classify(params, budget)
    return _report("verify-strata", params, rows, totals, ok, t0)


def run_verify_torsor(params, budget=None):
    t0 = time.monotonic()
    model = _model(params)
    rep = latmod.torsor_check(model, budget=budget)
    rows = [
        {
            "w": None,
            "length": None,
            "predicted": None,
            "observed": f,
            "source": f"latmod.unramified_points(l={l})",
        }
        for l, f in enumerate(rep.unramified_factors, start=1)
    ]
    totals = {"predicted": rep.product, "observed": rep.splitting_total}
    return _report("verify-torsor", params, rows, totals, rep.passed, t0)


def run_verify_symplectic(params, budget=None):
    t0 = time.monotonic()
    params = dict(params)
    params["group"] = "gsp"
    s, rows, counts, ok = _classify(params, budget)
    maximal = len(s.maximal_classes())
    # one maximal class is expected only at a special maximal parahoric
    special = s.spec.I in (frozenset({0}), frozenset({s.spec.datum.n}))
    ok = ok and (maximal == 1 or not special)
    totals = {k: counts[k] for k in ("predicted", "observed", "unmatched")}
    totals["maximal_classes"] = maximal
    return _report("verify-symplectic", params, rows, totals, ok, t0)


def run_verify_matrix(params, budget=None):
    t0 = time.monotonic()
    p = int(params["p"])
    if params.get("n") is not None:
        n, r, s = int(params["n"]), int(params["r"]), int(params["s"])
        direct = matschemes.unitary_points_direct(n, r, s, p, budget=budget)
        strat = matschemes.unitary_points_stratified(n, r, s, p, budget=budget)
        by_rank = dict(direct.by_rank)
        rows = [
            {
                "w": None,
                "length": k,
                "predicted": cnt,
                "observed": by_rank.get(k, 0),
                "source": "matschemes.unitary_points_direct/stratified",
            }
            for k, cnt in strat.by_rank
        ]
        totals = {"predicted": strat.total, "observed": direct.total}
        passed = direct.total == strat.total and direct.by_rank == strat.by_rank
        return _report("verify-matrix-unitary", params, rows, totals, passed, t0)
    g, e = int(params["g"]), int(params["e"])
    direct = matschemes.symplectic_P_points(g, e, p, "direct", budget=budget)
    linear = matschemes.symplectic_P_points(g, e, p, "linear", budget=budget)
    rows = [
        {
            "w": None,
            "length": None,
            "predicted": linear,
            "observed": direct,
            "source": "matschemes.symplectic_P_points",
        }
    ]
    totals = {"predicted": linear, "observed": direct}
    return _report("verify-matrix-symplectic", params, rows, totals, direct == linear, t0)


_RUNNERS = {
    "adm": run_adm,
    "perm": run_perm,
    "compare-adm-perm": run_compare,
    "count": run_count,
    "enumerate": run_enumerate,
    "verify-strata": run_verify_strata,
    "verify-torsor": run_verify_torsor,
    "verify-symplectic": run_verify_symplectic,
    "verify-matrix": run_verify_matrix,
}


# ---------------------------------------------------------------------------
# manifest suites


def parse_manifest(text):
    """Line-oriented key=value blocks separated by blank lines."""
    cases = []
    block = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            if not line and block:
                cases.append(block)
                block = {}
            continue
        if "=" not in line:
            raise ManifestParseError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ManifestParseError(f"line {lineno}: empty key")
        block[key] = value
    if block:
        cases.append(block)
    for i, c in enumerate(cases):
        if "case" not in c:
            raise ManifestParseError(f"block {i + 1}: missing 'case' key")
        if c["case"] not in _RUNNERS:
            raise ManifestParseError(f"block {i + 1}: unknown case {c['case']!r}")
    return cases


def _block_params(block):
    """The runner parameters of a manifest block."""
    params = {k: v for k, v in block.items() if k != "case" and not k.startswith("expect_")}
    if "iwahori" in params:
        params["iwahori"] = params["iwahori"].lower() in ("1", "true", "yes")
    return params


def _bad_expectation(block):
    """The message for the first expect_* value of block not an integer, or None."""
    for key, value in block.items():
        if key.startswith("expect_"):
            try:
                int(value)
            except ValueError:
                return f"{key} must be an integer, got {value!r}"
    return None


def run_suite(manifest_path, budget=None, out_dir=None):
    """Run every block of the manifest, each with a fresh Budget(budget)."""
    with open(manifest_path) as fh:
        cases = parse_manifest(fh.read())
    for i, block in enumerate(cases):  # before any case runs
        problem = _missing(block["case"], _block_params(block)) or _bad_expectation(block)
        if problem:
            raise ManifestParseError(f"block {i + 1} ({block['case']}): {problem}")
    reports = []
    ok = True
    for i, block in enumerate(cases):
        report = _RUNNERS[block["case"]](_block_params(block), budget=Budget(budget))
        for key, value in block.items():
            if key.startswith("expect_"):
                field = key[len("expect_"):]
                expected = int(value)
                got = report["totals"].get(field)
                if got != expected:
                    report["pass"] = False
                    report["totals"][f"expected_{field}"] = expected
        ok = ok and report["pass"]
        reports.append(report)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, f"case_{i:03d}.csv"), "w", newline="") as fh:
                fh.write(format_csv(report))
    return {"cases": reports, "pass": ok}


# ---------------------------------------------------------------------------
# output formatting


_CSV_FIELDS = ["word", "omega", "translation", "finite", "length", "predicted", "observed", "source"]


def format_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for row in report["rows"]:
        w = row.get("w") or {}
        writer.writerow(
            [
                " ".join(str(x) for x in w.get("word", [])),
                w.get("omega", ""),
                w.get("translation", ""),
                w.get("finite", ""),
                row.get("length", ""),
                row.get("predicted", ""),
                row.get("observed", ""),
                row.get("source", ""),
            ]
        )
    writer.writerow([])
    writer.writerow(["totals", "", "", "", "", report["totals"].get("predicted", ""),
                     report["totals"].get("observed", ""), "PASS" if report["pass"] else "FAIL"])
    return buf.getvalue()


def format_text(report):
    lines = [f"case: {report['case']}"]
    for k, v in report["params"].items():
        lines.append(f"  {k} = {v}")
    for row in report["rows"]:
        w = row.get("w")
        label = (
            f"t_({w['translation']}) {w['finite']} tau^{w['omega']}" if w else row.get("source", "")
        )
        lines.append(
            f"  {label:40s} len={row.get('length')} predicted={row.get('predicted')} observed={row.get('observed')}"
        )
    totals = " ".join(f"{k}={v}" for k, v in report["totals"].items())
    lines.append(f"totals: {totals}")
    lines.append("PASS" if report["pass"] else "FAIL")
    return "\n".join(lines) + "\n"


# the JSON text of each scalar type a report holds, by exact type
_JSON_SCALARS = {
    str: _quote,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda v: "null",
}


def _to_json(obj, indent=""):
    """json.dumps(obj, indent=2) for what reports are made of: dicts with
    str keys, lists, str, int, bool and None.  Strings go through the C
    quoter and each container is joined at once; json.dumps with an
    indent runs its pure-Python encoder instead."""
    scalar = _JSON_SCALARS.get
    if f := scalar(type(obj)):
        return f(obj)
    inner = indent + "  "
    if type(obj) is dict:
        items = [_quote(k) + ": " + (f(v) if (f := scalar(type(v))) else _to_json(v, inner)) for k, v in obj.items()]
        brackets = "{}"
    elif type(obj) is list:
        if all(type(v) is int for v in obj):
            items = map(int.__repr__, obj)
        else:
            items = [f(v) if (f := scalar(type(v))) else _to_json(v, inner) for v in obj]
        brackets = "[]"
    else:
        raise TypeError(f"{type(obj).__name__} is not a report value")
    if not obj:
        return brackets
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + brackets[1]


def emit(report, fmt, stream):
    if fmt == "json":
        stream.write(_to_json(report) + "\n")
    elif fmt == "csv":
        stream.write(format_csv(report))
    else:
        stream.write(format_text(report))


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(2, f"usage error: {message}\n")


# the options each case requires; _missing checks them, and the rest,
# on the command line and in manifest blocks alike
_REQUIRED = {
    **dict.fromkeys(("adm", "perm", "compare-adm-perm"), ("mu",)),
    "count": ("mu", "p"),
    **dict.fromkeys(("enumerate", "verify-strata", "verify-torsor", "verify-symplectic"), ("e", "p")),
    "verify-matrix": ("p",),
}


def _add_common(sp, case):
    need = _REQUIRED[case]
    if case != "verify-matrix":  # the matrix schemes take no group or level
        sp.add_argument("--group", default="gl", choices=["gl", "gsp"])
        sp.add_argument("--d", type=int)
        sp.add_argument("--I")
        sp.add_argument("--iwahori", action="store_true")
    sp.add_argument("--g", type=int)
    sp.add_argument("--format", default="text", choices=["json", "csv", "text"])
    sp.add_argument("--budget", type=int)
    if "e" in need:
        sp.add_argument("--e", type=int)
        sp.add_argument("--r")
    if "mu" in need:
        sp.add_argument("--mu")
    if "p" in need:
        sp.add_argument("--p", type=int)


def build_parser():
    parser = _Parser(prog="locmodel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("adm", "perm", "compare-adm-perm", "count"):
        _add_common(sub.add_parser(name), name)
    sp = sub.add_parser("enumerate")
    sp.add_argument("points", choices=["naive", "splitting", "canonical", "unramified"])
    _add_common(sp, "enumerate")
    sp.add_argument("--l", type=int)

    vp = sub.add_parser("verify")
    vsub = vp.add_subparsers(dest="verify_what", required=True)
    for what in ("strata", "torsor", "symplectic"):
        _add_common(vsub.add_parser(what), f"verify-{what}")
    sp = vsub.add_parser("matrix")
    _add_common(sp, "verify-matrix")
    sp.add_argument("--n", type=int)
    sp.add_argument("--r", type=int)
    sp.add_argument("--s", type=int)
    sp.add_argument("--e", type=int)

    sp = sub.add_parser("run-suite")
    sp.add_argument("manifest")
    sp.add_argument("--out")
    sp.add_argument("--format", default="json", choices=["json", "csv", "text"])
    sp.add_argument("--budget", type=int)
    return parser


def _missing(case, params):
    """The usage message for parameters lacking what the runner of case
    needs, or None.  The command line and manifest blocks share it."""
    absent = [f"--{k}" for k in _REQUIRED[case] if params.get(k) is None]
    if absent:
        return "the following arguments are required: " + ", ".join(absent)
    if case == "verify-matrix":
        need = ("n", "r", "s") if params.get("n") is not None else ("g", "e")
        bad = any(params.get(k) is None for k in need)
        return "verify matrix needs --n, --r and --s, or --g and --e" if bad else None
    gsp = case == "verify-symplectic" or str(params.get("group", "gl")).lower() == "gsp"
    size = "g" if gsp else "d"
    if params.get(size) is None:
        return f"need --{size} for this group"
    if params.get("I") is None and not params.get("iwahori"):
        return "need --I or --iwahori"
    if params.get("points") == "unramified" and params.get("l") is None:
        return "enumerate unramified needs --l"
    return None


def _budget(parser, args):
    """The budget limit of --budget, else of LOCMODEL_BUDGET, else None
    (the default); a limit that is not a positive integer is a usage error."""
    limit, source = args.budget, "--budget"
    if limit is None and os.environ.get("LOCMODEL_BUDGET"):
        source = "LOCMODEL_BUDGET"
        try:
            limit = int(os.environ["LOCMODEL_BUDGET"])
        except ValueError:
            parser.error("LOCMODEL_BUDGET must be an integer")
    if limit is not None and limit <= 0:
        parser.error(f"{source} must be a positive integer, got {limit}")
    return limit


@functools.lru_cache(maxsize=None)
def _parser():
    """The argument parser, built on the first main() call and reused."""
    return build_parser()


def main(argv=None, stream=None):
    stream = stream or sys.stdout
    try:
        args = _parser().parse_args(argv)
        name = args.command if args.command != "verify" else f"verify-{args.verify_what}"
        problem = name in _REQUIRED and _missing(name, vars(args))
        if problem:
            _parser().error(problem)
        limit = _budget(_parser(), args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        if args.command == "run-suite":
            aggregate = run_suite(args.manifest, budget=limit, out_dir=args.out)
            if args.format == "json":
                stream.write(_to_json(aggregate) + "\n")
            else:
                for rep in aggregate["cases"]:
                    emit(rep, args.format, stream)
            return 0 if aggregate["pass"] else 1

        params = {
            k: v
            for k, v in vars(args).items()
            if k not in ("command", "verify_what", "format", "budget")
        }
        report = _RUNNERS[name](params, budget=Budget(limit))
        emit(report, args.format, stream)
        return 0 if report["pass"] else 1
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except SignatureCollision as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except ManifestParseError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ArtifactError, ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}".splitlines()[0], file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
