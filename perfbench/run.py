"""Benchmark of `qcisyz`: invariant records per second, on one workload.

    python3 perfbench/run.py --workload qci-fp --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from the `src/` directory next
to this one. One operation is the work of one `qcisyz check` on one input,
in-process: parse the texts, `analyze`, `check_all`, render the JSON record.
Operations run one at a time in this single process (a closed loop with one
client). Every record is checked afterwards by `reference.check_record`.

The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`, the end-to-end metrics with `--trace 0` and the
per-layer ones (see `spans.py`) with `--trace 1`. The full result, and with
`--trace 1` every span, goes to `perfbench/out/`.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# numpy must not start a thread pool: the benchmark is single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("qci-fp", "qci-q", "oracle-fp")
SETUP_PROBES = 5  # fresh processes whose set-up time gives setup_s


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test sizes: a few s = 2 inputs")
    p.add_argument("--setup-probe", metavar="PLAN", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import qcisyz from this checkout, never from anywhere else."""
    if not (SRC / "qcisyz" / "__init__.py").is_file():
        raise SystemExit(f"error: no qcisyz sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qcisyz
    from qcisyz import catalog, fields, parsing, pipeline, report, theorems  # noqa: F401

    if Path(qcisyz.__file__).resolve().parent != (SRC / "qcisyz").resolve():
        raise SystemExit(f"error: qcisyz was imported from {qcisyz.__file__}, not {SRC}")


def make_operation(field, deep_checks: bool):
    """One `qcisyz check`, in-process. Every call goes through a module
    attribute, so that the traced run's wrappers see it."""
    from qcisyz import parsing, pipeline, report, theorems

    def operation(mode, texts):
        polys = [parsing.parse_polynomial(t, field) for t in texts]
        if mode == "curve":
            inp = pipeline.QciInput.curve(polys[0], texts[0])
        else:
            inp = pipeline.QciInput.triple(*polys, texts=texts)
        a = pipeline.analyze(inp, deep_checks=deep_checks)
        return report.render_json(report.analysis_to_json(a, theorems.check_all(a)))

    return operation


def set_up(plan):
    """Draw the planned inputs and warm up once on a small curve.

    Returns (workload, operation).
    """
    import workloads
    from qcisyz import fields

    wl = workloads.build(plan)
    operation = make_operation(fields.make_field(wl.field_kind, workloads.PRIME), wl.deep_checks)
    operation("curve", ("z*y^2 - x^3 - z*x^2",))
    return wl, operation


def probe_setup(plan, argv):
    """Seconds from process start to the end of set-up, in a fresh process
    given the same plan, so that the choice of draws is not redone."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-probe", json.dumps(dataclasses.asdict(plan))]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=170)
    return float(out.stdout.strip().splitlines()[-1])


def timed_run(rounds, operation, seconds, whole_passes):
    """Whole rounds until `seconds` have passed; with `whole_passes`, whole
    passes over all rounds. Returns samples (instance, seconds, text, error)
    and the elapsed time."""
    samples = []
    start = time.perf_counter()
    done = 0
    while True:
        for inst in rounds[done % len(rounds)]:
            t = time.perf_counter()
            try:
                text, error = operation(inst.mode, inst.texts), None
            except Exception as exc:  # a failed operation is counted, not fatal
                text, error = None, f"{type(exc).__name__}: {exc}"
            samples.append((inst, time.perf_counter() - t, text, error))
        done += 1
        if time.perf_counter() - start >= seconds and (not whole_passes or done % len(rounds) == 0):
            return samples, time.perf_counter() - start


def check_samples(samples, wl):
    """(failed, correct, problems): an operation fails when it raises or when
    its record fails a check; a wrong record also makes the run incorrect."""
    import reference

    failed, correct, problems = 0, True, []
    refs, first_text = {}, {}
    for inst, _, text, error in samples:
        if error:
            failed += 1
            problems.append({"instance": inst.name, "error": error})
            continue
        if inst.texts not in refs:
            refs[inst.texts] = reference.reference_for(inst.mode, inst.texts, wl.prime)
        found = reference.check_record(json.loads(text), refs[inst.texts], inst.expected)
        if first_text.setdefault(inst.texts, text) != text:
            found.append("record differs from an earlier run of the same input")
        if found:
            failed += 1
            correct = False
            problems.append({"instance": inst.name, "problems": found})
    return failed, correct, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import_s = time.perf_counter() - STARTED

    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()

    import workloads

    if args.setup_probe:
        t = time.perf_counter()
        set_up(workloads.Plan(**json.loads(args.setup_probe)))
        print(import_s + time.perf_counter() - t)
        return 0

    # Choosing draws by their Tjurina number is the benchmark's own work, not
    # the program's, so no set-up time includes it.
    if recorder:
        recorder.phase = "choose"
    plan = workloads.plan(args.workload, args.seed, args.tiny)
    if recorder:
        recorder.phase = "setup"
    wl, operation = set_up(plan)
    # This process's set-up ran after the choice of draws had made the first
    # calls into the program; each probe starts cold, as a user's run does.
    setup_probes = [] if args.trace else [probe_setup(plan, argv or sys.argv[1:]) for _ in range(SETUP_PROBES)]

    if recorder:
        recorder.phase = "run"
    samples, elapsed = timed_run(wl.rounds, operation, args.seconds, whole_passes=bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder:
        recorder.phase = "check"
    failed, correct, problems = check_samples(samples, wl)

    durations = [s[1] for s in samples]
    if recorder:
        metrics = recorder.layer_metrics(ops=len(samples))
    else:
        metrics = {
            "instances_per_s": {"value": (len(samples) - failed) / elapsed, "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(durations), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_probes), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": correct, "attempted": len(samples), "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    detail = {
        "args": vars(args),
        "result": result,
        "elapsed_s": elapsed,
        "op_seconds_mean": statistics.fmean(durations),
        "import_s": import_s,
        "setup_probe_s": setup_probes,
        "operations": [[inst.name, secs] for inst, secs, _, _ in samples],
        "problems": problems,
    }
    if recorder:
        detail["spans"] = recorder.spans
    (OUT / f"{stem}.json").write_text(json.dumps(detail) + "\n")

    print(
        f"{args.workload} seed {args.seed}: {len(samples)} operations in {elapsed:.2f} s,"
        f" mean {detail['op_seconds_mean']:.4f} s, {failed} failed, detail in {OUT / stem}.json"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
