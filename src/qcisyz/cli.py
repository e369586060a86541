"""Command-line surface: analyze, check, fuzz, catalog, search-tau-plus.

Exit codes: 0 success, 2 invalid input or an output file that cannot be
written, 3 internal invariant failure, 4 check violations. A fuzz run that
finishes exits 0: its summary counts the check incidents and the instances
that raised (`failures`, with the exit code each maps to), and --quarantine
keeps a replay record of each.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from multiprocessing import Pool

from .catalog import builtin_catalog, random_qci, search_tau_plus
from .fields import DEFAULT_PRIME, FieldConfigError, make_field
from .parsing import ParseError, parse_polynomial
from .pipeline import InputError, InvariantError, QciInput, analyze, chern_and_formulas
from .report import RENDERERS, analysis_to_json, input_to_json, render_json
from .theorems import STATEMENT_IDS, check_all

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_VIOLATION = 4


def _add_input_flags(p: argparse.ArgumentParser):
    p.add_argument("--curve", metavar="POLY", help="a single homogeneous form")
    p.add_argument(
        "--triple",
        nargs=3,
        metavar=("P1", "P2", "P3"),
        help="three homogeneous forms of equal degree",
    )


def _add_field_flags(p: argparse.ArgumentParser):
    p.add_argument(
        "--field",
        choices=("q", "fp"),
        default=os.environ.get("QCISYZ_FIELD", "fp"),
        help="ground field: rationals (q) or a prime field (fp)",
    )
    # argparse converts a string default with `type`, so a QCISYZ_PRIME
    # that is not an integer is a usage error (exit 2), not a traceback
    p.add_argument("--prime", type=int, default=os.environ.get("QCISYZ_PRIME", DEFAULT_PRIME))


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--out", choices=("json", "tsv", "pretty"), default="json")
    p.add_argument("--output-file", metavar="PATH")


def _build_input(args) -> QciInput:
    if bool(args.curve) == bool(args.triple):
        raise InputError("exactly one of --curve / --triple is required")
    field = make_field(args.field, args.prime)
    if args.curve:
        return QciInput.curve(parse_polynomial(args.curve, field), args.curve)
    polys = tuple(parse_polynomial(t, field) for t in args.triple)
    return QciInput.triple(*polys, texts=tuple(args.triple))


@contextmanager
def _writing_output():
    """An output that cannot be written is a usage error (exit 2)."""
    try:
        yield
    except OSError as e:
        raise InputError(str(e)) from e


def _emit(text: str, args) -> None:
    with _writing_output():
        if getattr(args, "output_file", None):
            with open(args.output_file, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def cmd_analyze(args) -> int:
    inp = _build_input(args)
    a = analyze(inp)
    doc = analysis_to_json(a)
    _emit(RENDERERS[args.out](doc), args)
    return EXIT_OK


def cmd_check(args) -> int:
    inp = _build_input(args)
    statements = None
    if args.statements:
        statements = [s.strip() for s in args.statements.split(",") if s.strip()]
        bad = [s for s in statements if s not in STATEMENT_IDS]
        if bad:
            raise InputError(f"unknown statement ids: {', '.join(bad)}")
    a = analyze(inp)
    report = check_all(a, statements=statements)
    doc = analysis_to_json(a, report)
    _emit(RENDERERS[args.out](doc), args)
    return EXIT_VIOLATION if report.violations else EXIT_OK


def _failure_incident(e) -> dict:
    """An instance whose analysis raised, with the exit code it maps to."""
    code = EXIT_INTERNAL if isinstance(e, InvariantError) else EXIT_INPUT
    return {
        "id": f"exit-{code}",
        "severity": "failure",
        "exit_code": code,
        "error": type(e).__name__,
        "message": str(e),
    }


def _fuzz_one(task):
    s, child_seed, field_kind, prime = task
    field = make_field(field_kind, prime)
    record = {"seed": child_seed, "s": s, "input": None}
    try:
        inp = random_qci(s, field, child_seed)
        record["input"] = input_to_json(inp)
        a = analyze(inp)
        report = check_all(a)
    except (InputError, InvariantError) as e:
        return dict(record, tau=None, d1=None, m=None, incidents=[_failure_incident(e)])
    incidents = [
        r.to_json()
        for r in report.results
        if r.severity in ("violation", "anomaly")
    ]
    return dict(record, tau=a.tau, d1=a.exponents[0], m=a.m, incidents=incidents)


def pool_size(jobs: int) -> int:
    """Worker count for `fuzz --jobs`: at least one, at most one per CPU."""
    return max(1, min(jobs, os.cpu_count() or 1))


def cmd_fuzz(args) -> int:
    if args.count < 1 or args.s < 2:
        raise InputError("fuzz needs --count >= 1 and --s >= 2")
    tasks = [
        (args.s, args.seed * 2**32 + i, args.field, args.prime)
        for i in range(args.count)
    ]
    started = time.time()
    jobs = pool_size(args.jobs)
    if jobs > 1:
        with Pool(jobs) as pool:
            results = pool.map(_fuzz_one, tasks)
    else:
        results = [_fuzz_one(t) for t in tasks]

    incidents = []
    for r in results:
        for inc in r["incidents"]:
            incidents.append((r, inc))
    if args.quarantine and incidents:
        with _writing_output():
            os.makedirs(args.quarantine, exist_ok=True)
            for r, inc in incidents:
                path = os.path.join(args.quarantine, f"{r['seed']}-{inc['id']}.json")
                record = {
                    "replay": {
                        "s": r["s"],
                        "seed": r["seed"],
                        "field": args.field,
                        "prime": args.prime,
                        "input": r["input"],
                    },
                    "incident": inc,
                    "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                    "wall_time": round(time.time() - started, 3),
                }
                with open(path, "w") as fh:
                    fh.write(render_json(record))

    # occupancy of (d1, tau) against the bounds, per d1
    occupancy = {}
    d = args.s + 1
    for r in results:
        if r["d1"] is not None:
            occupancy.setdefault(r["d1"], []).append(r["tau"])
    rows = []
    for d1, taus in sorted(occupancy.items()):
        bounds = chern_and_formulas(d, 0, d1)
        rows.append(
            {
                "d1": d1,
                "count": len(taus),
                "tau_min": min(taus),
                "tau_max": max(taus),
                "dpw_lower": bounds["dpw_lower"],
                "dpw_upper": bounds["dpw_upper"],
                "tau_plus": bounds.get("tau_plus"),
            }
        )
    severities = [i["severity"] for _, i in incidents]
    summary = {
        "version": 1,
        "s": args.s,
        "count": args.count,
        "seed": args.seed,
        "field": {"kind": args.field, "prime": args.prime},
        "violations": severities.count("violation"),
        "anomalies": severities.count("anomaly"),
        "occupancy": rows,
    }
    # present only when some instance raised, so clean summaries keep their bytes
    if "failure" in severities:
        summary["failures"] = severities.count("failure")
    _emit(render_json(summary), args)
    return EXIT_OK


def cmd_catalog(args) -> int:
    field = make_field(args.field, args.prime)
    rows = []
    failures = {}
    for entry in builtin_catalog():
        if args.verify:
            mismatches = entry.verify(field)
            if mismatches:
                failures[entry.name] = mismatches
            rows.append(
                {
                    "name": entry.name,
                    "expected": entry.expected,
                    "verified": not mismatches,
                    "mismatches": mismatches,
                }
            )
        else:
            rows.append({"name": entry.name, "expected": entry.expected})
    _emit(render_json({"version": 1, "entries": rows}), args)
    return EXIT_INTERNAL if failures else EXIT_OK


def cmd_search_tau_plus(args) -> int:
    d, d1 = args.d, args.d1
    if d < 3 or not (2 * d1 + 1 > d and 1 <= d1 <= d - 1):
        raise InputError("requires d >= 3 and d/2 <= d1 <= d-1")
    if args.budget < 1:
        raise InputError("search-tau-plus needs --budget >= 1")
    field = make_field(args.field, args.prime)
    hit = search_tau_plus(d, d1, budget=args.budget, seed=args.seed, field=field)
    if hit is None:
        doc = {"version": 1, "d": d, "d1": d1, "hit": None, "budget": args.budget}
        _emit(render_json(doc), args)
        return EXIT_OK
    a = analyze(hit)
    doc = {
        "version": 1,
        "d": d,
        "d1": d1,
        "budget": args.budget,
        "hit": input_to_json(hit),
        "tau": a.tau,
        "exponents": list(a.exponents),
    }
    _emit(render_json(doc), args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qcisyz",
        description="Syzygy and Tjurina invariants of plane curve jacobian "
        "subschemes and quasi-complete-intersection triples.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="compute the full invariant record")
    _add_input_flags(pa)
    _add_field_flags(pa)
    _add_output_flags(pa)
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("check", help="analysis plus the structural checks")
    _add_input_flags(pc)
    _add_field_flags(pc)
    _add_output_flags(pc)
    pc.add_argument("--statements", help="comma-separated filter, e.g. T4,T11")
    pc.set_defaults(func=cmd_check)

    pf = sub.add_parser("fuzz", help="random corpus run with checks")
    pf.add_argument("--s", type=int, required=True, help="triple degree")
    pf.add_argument("--count", type=int, default=20)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--jobs", type=int, default=1)
    pf.add_argument("--quarantine", metavar="DIR")
    _add_field_flags(pf)
    _add_output_flags(pf)
    pf.set_defaults(func=cmd_fuzz)

    pcat = sub.add_parser("catalog", help="list or verify the builtin examples")
    pcat.add_argument("--verify", action="store_true")
    _add_field_flags(pcat)
    _add_output_flags(pcat)
    pcat.set_defaults(func=cmd_catalog)

    ps = sub.add_parser(
        "search-tau-plus", help="search for an instance attaining tau_+"
    )
    ps.add_argument("--d", type=int, required=True)
    ps.add_argument("--d1", type=int, required=True)
    ps.add_argument("--budget", type=int, default=50)
    ps.add_argument("--seed", type=int, default=0)
    _add_field_flags(ps)
    _add_output_flags(ps)
    ps.set_defaults(func=cmd_search_tau_plus)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (InputError, ParseError, FieldConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantError as e:
        print(f"internal invariant failure: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
