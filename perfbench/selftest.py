"""Quick self-test of the benchmark, at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, prints as its last line a result
   with exactly the metrics and units that BENCHMARK.json names.
2. The output checks pass real records and reject corrupted ones.
3. Without the program's sources next to it the command fails, printing no
   result.
Exits 0 when all hold; prints each failure otherwise.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FAILURES = []


def expect(ok, what):
    if not ok:
        FAILURES.append(what)
        print(f"FAIL: {what}")


def run_command(cwd, *extra):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seed", "3", "--seconds", "1", *extra],
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_metrics_emitted():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run_command(ROOT, "--workload", workload, "--trace", str(trace), "--tiny")
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{label} exited {proc.returncode}: {proc.stderr[-500:]}")
            if proc.returncode:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{label}: {result}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace], f"{label}: metrics {got} != {wanted[trace]}")


def corruptions(doc):
    """(label, corrupted copy) pairs; each must fail the checks."""

    def edit(fn):
        bad = copy.deepcopy(doc)
        fn(bad)
        return bad

    def bump_betti(name):
        def fn(d):
            row = next(iter(d["betti"][name].values()))
            key = next(iter(row))
            row[key] += 1

        return fn

    yield "tau + 1", edit(lambda d: d.update(tau=d["tau"] + 1))
    yield "tau - 1", edit(lambda d: d.update(tau=d["tau"] - 1))
    yield "first exponent + 1", edit(lambda d: d["exponents"].__setitem__(0, d["exponents"][0] + 1))
    yield "last b + 1", edit(lambda d: d["b"].__setitem__(-1, d["b"][-1] + 1))
    yield "c2 + 1", edit(lambda d: d.update(c2=d["c2"] + 1))
    yield "degZ + 1", edit(lambda d: d.update(degZ=d["degZ"] + 1))
    yield "classification", edit(lambda d: d.update(classification="Free"))
    yield "a violated statement", edit(lambda d: d["checks"][3].update(severity="violation"))
    for name in ("ar", "sigma", "z", "h1"):
        yield f"betti {name} entry + 1", edit(bump_betti(name))


def test_checks_reject_corruption():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import reference
    import workloads
    from run import make_operation

    from qcisyz import fields

    fp = fields.PrimeField(workloads.PRIME)
    cases = workloads.catalog_curves(["nodal-cubic", "lines-4"]) + workloads.triples(fp, 3, 3, [0])
    operation = make_operation(fp, False)
    for inst in cases:
        doc = json.loads(operation(inst.mode, inst.texts))
        ref = reference.reference_for(inst.mode, inst.texts, workloads.PRIME)
        expect(reference.check_record(doc, ref, inst.expected) == [], f"{inst.name}: clean record rejected")
        for label, bad in corruptions(doc):
            expect(reference.check_record(bad, ref, inst.expected), f"{inst.name}: {label} not caught")
    # a hand-derived value that disagrees with a right record is caught too
    cubic = cases[0]
    doc = json.loads(operation(cubic.mode, cubic.texts))
    ref = reference.reference_for(cubic.mode, cubic.texts, workloads.PRIME)
    expect(reference.check_record(doc, ref, {"tau": 2}), "wrong hand-derived tau not caught")


def test_fails_without_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_command(bare, "--workload", "qci-fp", "--trace", "0")
    expect(proc.returncode != 0, "bare directory: exit code 0")
    expect('"metrics"' not in proc.stdout, "bare directory: printed a result")
    shutil.rmtree(bare)


if __name__ == "__main__":
    test_metrics_emitted()
    test_checks_reject_corruption()
    test_fails_without_program()
    print("self-test:", "FAILED" if FAILURES else "ok")
    sys.exit(1 if FAILURES else 0)
