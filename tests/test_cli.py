import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcisyz import cli
from qcisyz.errors import InputError, InvariantError
from qcisyz.report import render_pretty, render_tsv


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_analyze_triangle_json(capsys):
    code, doc = run_json(
        capsys, "analyze", "--curve", "x*y*z", "--field", "fp", "--prime", "32003"
    )
    assert code == 0
    assert doc["tau"] == 3 and doc["m"] == 2 and doc["exponents"] == [1, 1]
    assert doc["version"] == 1
    assert doc["field"] == {"kind": "fp", "prime": 32003}
    assert set(doc) >= {
        "version", "input", "field", "d", "tau", "m", "exponents", "b",
        "c1", "c2", "degZ", "betti", "classification", "checks",
    }


def test_analyze_smooth_curve(capsys):
    code, doc = run_json(capsys, "analyze", "--curve", "x^3 + y^3 + z^3")
    assert code == 0 and doc["smooth"] is True and doc["tau"] == 0


def test_exit_code_invalid_input(capsys):
    assert run(capsys, "analyze", "--curve", "x^2*y")[0] == 2
    assert run(capsys, "analyze", "--curve", "x^2 +")[0] == 2
    assert run(capsys, "analyze")[0] == 2  # neither --curve nor --triple
    assert run(capsys, "analyze", "--curve", "x^3", "--triple", "x", "y", "z")[0] == 2


def test_division_by_the_characteristic_is_a_usage_error(capsys):
    # 1/2 has no value in GF(2); over the rationals the same curve parses
    code, out = run(capsys, "analyze", "--curve", "x/2*y*z + x^3", "--prime", "2")
    assert code == 2 and out == ""
    assert run(capsys, "analyze", "--curve", "x/2*y*z + x^3", "--field", "q")[0] == 0


def test_check_passes_on_catalog_curve(capsys):
    code, doc = run_json(
        capsys, "check", "--curve", "(x^3+y^3+z^3)*(x+y+z)", "--statements", "T11,T12"
    )
    assert code == 0
    ids = [c["id"] for c in doc["checks"]]
    assert ids == ["T11", "T12"]
    assert all(c["severity"] == "pass" for c in doc["checks"])


def test_check_unknown_statement(capsys):
    assert run(capsys, "check", "--curve", "x*y*z", "--statements", "T0")[0] == 2


def test_check_violation_exit_code(capsys, monkeypatch):
    import qcisyz.theorems as theorems

    def corrupt(a, sid):
        return True, False, {}

    monkeypatch.setattr(theorems, "_check_one", corrupt)
    code, _ = run(capsys, "check", "--curve", "x*y*z", "--statements", "T1")
    assert code == 4


def test_output_file_and_renderers(tmp_path, capsys):
    path = tmp_path / "out.json"
    code = cli.main(
        ["analyze", "--curve", "x*y*z", "--output-file", str(path)]
    )
    assert code == 0
    doc = json.loads(path.read_text())
    pretty = render_pretty(doc)
    assert "tau = 3" in pretty and "classification: Free" in pretty
    tsv = render_tsv(doc)
    assert tsv.startswith("d\t3")
    _, out = run(capsys, "analyze", "--curve", "x*y*z", "--out", "pretty")
    assert out == pretty


def test_triple_flag(capsys):
    code, doc = run_json(capsys, "analyze", "--triple", "y*z", "x*z", "x*y")
    assert code == 0 and doc["tau"] == 3 and doc["m"] == 2


def test_catalog_verify_exit_zero(capsys):
    code, doc = run_json(capsys, "catalog", "--verify")
    assert code == 0
    assert all(e["verified"] for e in doc["entries"])


def test_catalog_list_only(capsys):
    code, doc = run_json(capsys, "catalog")
    assert code == 0 and len(doc["entries"]) >= 8


def test_search_tau_plus_cli(capsys):
    code, doc = run_json(capsys, "search-tau-plus", "--d", "3", "--d1", "2")
    assert code == 0 and doc["hit"] is not None and doc["tau"] == 1
    assert run(capsys, "search-tau-plus", "--d", "4", "--d1", "1")[0] == 2


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_search_tau_plus_rejects_an_empty_budget(capsys, budget):
    code = cli.main(["search-tau-plus", "--d", "3", "--d1", "2", "--budget", budget])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "--budget" in captured.err


def test_python_dash_m_runs_the_command_line(capsys):
    argv = ["analyze", "--curve", "z*y^2 - x^3 - z*x^2"]
    proc = subprocess.run(
        [sys.executable, "-m", "qcisyz", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    code, out = run(capsys, *argv)
    assert code == 0 and proc.stdout == out


def test_import_leaves_numpy_unloaded():
    code = "import sys, qcisyz, qcisyz.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_fuzz_deterministic_across_runs_and_jobs(tmp_path):
    args = ["fuzz", "--s", "2", "--count", "6", "--seed", "3"]
    outs = []
    for jobs, name in [(1, "a"), (1, "b"), (2, "c")]:
        path = tmp_path / f"{name}.json"
        code = cli.main(args + ["--jobs", str(jobs), "--output-file", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_fuzz_quarantine_empty_on_clean_corpus(tmp_path, capsys):
    qdir = tmp_path / "quarantine"
    code, doc = run_json(
        capsys,
        "fuzz", "--s", "2", "--count", "4", "--seed", "0",
        "--quarantine", str(qdir),
    )
    assert code == 0
    assert doc["violations"] == 0 and doc["anomalies"] == 0
    assert not qdir.exists() or not list(qdir.iterdir())


def test_fuzz_quarantine_records_incidents(tmp_path, capsys, monkeypatch):
    import qcisyz.cli as climod

    real = climod._fuzz_one

    def corrupted(task):
        r = real(task)
        r["incidents"] = [
            {"id": "T4", "hypothesis": True, "holds": False,
             "severity": "violation", "witnesses": {}}
        ]
        return r

    monkeypatch.setattr(climod, "_fuzz_one", corrupted)
    qdir = tmp_path / "q"
    code, doc = run_json(
        capsys,
        "fuzz", "--s", "2", "--count", "2", "--seed", "9",
        "--quarantine", str(qdir),
    )
    assert code == 0 and doc["violations"] == 2
    files = sorted(p.name for p in qdir.iterdir())
    assert files == [f"{9 * 2**32}-T4.json", f"{9 * 2**32 + 1}-T4.json"]
    record = json.loads((qdir / files[0]).read_text())
    assert record["replay"]["seed"] == 9 * 2**32
    assert record["incident"]["id"] == "T4"


def test_env_var_default_field(capsys, monkeypatch):
    monkeypatch.setenv("QCISYZ_FIELD", "q")
    code, doc = run_json(capsys, "analyze", "--curve", "x*y*z")
    assert code == 0 and doc["field"]["kind"] == "q"
    # explicit flag wins
    code, doc = run_json(capsys, "analyze", "--curve", "x*y*z", "--field", "fp")
    assert doc["field"]["kind"] == "fp"


def test_resolution_failure_exits_3(capsys, monkeypatch):
    import qcisyz.pipeline as pipeline
    from qcisyz.resolution import ResolutionError

    def broken(x):
        raise ResolutionError("consecutive differentials do not compose to zero")

    monkeypatch.setattr(pipeline, "minimal_resolution", broken)
    code = cli.main(["analyze", "--curve", "z*y^2 - x^3 - z*x^2"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "do not compose" in captured.err


def test_classification_failure_exits_3(capsys, monkeypatch):
    from qcisyz.pipeline import analyze
    from qcisyz.theorems import classify

    def two_point_z(inp):
        # a nearly free arrangement whose Z claims two points
        a = analyze(inp)
        a.deg_Z = 2
        a.classification = classify(a)
        return a

    monkeypatch.setattr(cli, "analyze", two_point_z)
    code = cli.main(["analyze", "--curve", "x*y*z*(x + y + z)"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "nearly free shape" in captured.err


def test_fuzz_jobs_clamped_to_cpu_count(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert [cli.pool_size(j) for j in (-1, 0, 1, 3, 4, 5, 64)] == [1, 1, 1, 3, 4, 4, 4]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli.pool_size(8) == 1


@pytest.mark.parametrize(
    "error, code", [(InvariantError, 3), (InputError, 2)]
)
def test_fuzz_quarantines_an_instance_that_raises(tmp_path, capsys, monkeypatch, error, code):
    from qcisyz.catalog import random_qci
    from qcisyz.fields import PrimeField
    from qcisyz.report import input_to_json

    bad = 7 * 2**32 + 1
    bad_input = input_to_json(random_qci(2, PrimeField(32003), bad))
    real = cli.analyze

    def flaky(inp):
        if input_to_json(inp) == bad_input:
            raise error("injected failure")
        return real(inp)

    monkeypatch.setattr(cli, "analyze", flaky)
    qdir = tmp_path / "q"
    code_out, doc = run_json(
        capsys,
        "fuzz", "--s", "2", "--count", "3", "--seed", "7",
        "--quarantine", str(qdir),
    )
    assert code_out == 0
    assert doc["failures"] == 1 and doc["violations"] == 0
    assert sum(row["count"] for row in doc["occupancy"]) == 2
    files = sorted(p.name for p in qdir.iterdir())
    assert files == [f"{bad}-exit-{code}.json"]
    record = json.loads((qdir / files[0]).read_text())
    assert record["replay"]["seed"] == bad and record["replay"]["input"] == bad_input
    assert record["incident"]["exit_code"] == code
    assert record["incident"]["error"] == error.__name__
    assert record["incident"]["message"] == "injected failure"


@pytest.mark.parametrize("argv", [["catalog"], ["analyze", "--curve", "z*y^2 - x^3 - z*x^2"]])
def test_non_integer_prime_env_is_a_usage_error(capsys, monkeypatch, argv):
    monkeypatch.setenv("QCISYZ_PRIME", "abc")
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "invalid int value: 'abc'" in err and "Traceback" not in err
    # a flag on the command line wins over the environment
    assert cli.main(argv + ["--prime", "101"]) == 0


def test_unwritable_output_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "out.json"
    code = cli.main(["analyze", "--curve", "x*y*z", "--output-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and str(path) in captured.err
    assert not path.exists()


@pytest.mark.parametrize("blocked", ["directory", "record"])
def test_unwritable_quarantine_is_a_usage_error(tmp_path, capsys, monkeypatch, blocked):
    real = cli._fuzz_one

    def corrupted(task):
        r = real(task)
        r["incidents"] = [{"id": "T4", "severity": "violation"}]
        return r

    monkeypatch.setattr(cli, "_fuzz_one", corrupted)
    if blocked == "directory":
        # a plain file where the quarantine directory would go
        (tmp_path / "file").write_text("")
        qdir = tmp_path / "file" / "q"
    else:
        # a directory where the replay record would go
        qdir = tmp_path / "q"
        (qdir / f"{5 * 2**32}-T4.json").mkdir(parents=True)
    code = cli.main(["fuzz", "--s", "2", "--count", "1", "--seed", "5", "--quarantine", str(qdir)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
