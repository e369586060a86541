"""Acceptance criteria, one test per numbered criterion.

Each test finishes by printing a single PASS line; a failed assertion marks
the criterion failed. The shared random corpus (200 triples, s in 2..5,
fixed master seed; the `corpus` fixture in conftest.py) backs criteria 6,
7, 8 and 10.
"""

import time

from qcisyz.catalog import catalog_entry, search_tau_plus
from qcisyz.fields import QQ, PrimeField
from qcisyz.parsing import parse_polynomial
from qcisyz.pipeline import (
    QciInput,
    analyze,
    chern_and_formulas,
    verify_hilbert_consistency,
)
from qcisyz.resolution import BettiTable
from qcisyz.theorems import check_all

F = PrimeField(32003)

ALWAYS_APPLICABLE = ("T3", "T4", "T6", "T7", "T9", "T10", "T11")


def announce(n: int, text: str):
    print(f"ACCEPTANCE {n}: PASS - {text}", flush=True)


def curve(text, field=F):
    return QciInput.curve(parse_polynomial(text, field), text)


def test_criterion_01_nodal_cubic():
    started = time.time()
    for field in (F, QQ):
        a = analyze(curve("z*y^2 - x^3 - z*x^2", field))
        assert (a.tau, a.m) == (1, 4)
        assert a.exponents == (2, 2, 2, 2)
        assert a.second_syzygy_degrees == (3, 3)
        r = {x.statement_id: x for x in check_all(a).results}["T15"]
        assert r.hypothesis and r.holds and r.witnesses["expected_m"] == 4
        assert r.witnesses["shape"] is True and a.tau == r.witnesses["tau_plus"]
        assert time.time() - started < 1.0
    announce(1, "nodal cubic invariants and the extremal-tau shape, both fields")


def test_criterion_02_nodal_quartic():
    started = time.time()
    entry = catalog_entry("nodal-quartic")
    a = analyze(entry.input_over(F))
    assert a.tau == 1
    assert a.exponents == (3, 3, 3, 4)
    assert a.second_syzygy_degrees == (5, 5)
    assert time.time() - started < 2.0
    announce(2, "single-node quartic exponents (3,3,3,4), b=(5,5), tau=1")


def test_criterion_03_cubic_plus_line():
    started = time.time()
    a = analyze(curve("(x^3 + y^3 + z^3)*(x + y + z)"))
    assert (a.tau, a.m) == (3, 3)
    assert a.exponents == (2, 3, 3)
    assert a.sigma_betti == BettiTable({(0, 1): 1, (0, 3): 1, (1, 4): 1})
    r = {x.statement_id: x for x in check_all(a).results}["T12"]
    assert r.hypothesis and r.holds
    assert a.tau == r.witnesses["dpw_lower"] and r.witnesses["ci_shape"] is True
    assert time.time() - started < 2.0
    announce(3, "cubic+line: tau=3=dpw lower, sigma = CI(3,1), T12 extremal")


def test_criterion_04_two_conics():
    started = time.time()
    a = analyze(curve("(x*z - y^2)*(x^2 - y*z)"))
    assert (a.tau, a.m) == (4, 4)
    assert a.exponents == (2, 3, 3, 3)
    assert a.second_syzygy_degrees == (4, 4)
    assert a.sigma_betti == BettiTable({(0, 2): 2, (1, 4): 1})
    assert a.sigma_is_ci
    assert time.time() - started < 2.0
    announce(4, "two transversal conics: tau=4, b=(4,4), sigma = CI(2,2)")


def test_criterion_05_triangle():
    started = time.time()
    a = analyze(curve("x*y*z"))
    assert (a.tau, a.m) == (3, 2)
    assert a.exponents == (1, 1) and a.classification == "Free"
    lower_upper = chern_and_formulas(a.d, a.tau, a.d1)
    assert a.tau == lower_upper["dpw_upper"]
    assert time.time() - started < 1.0
    announce(5, "triangle: free with exponents (1,1), tau attains the dPW upper bound")


def test_criterion_06_quotient_shapes_on_corpus(corpus):
    checked = 0
    for name in ("nodal-cubic", "nodal-quartic", "cubic-plus-line", "two-conics",
                 "triangle", "lines-4", "lines-5", "lines-6"):
        a = analyze(catalog_entry(name).input_over(F))
        assert a.z.z_betti.total_at(0) == a.m - 1
        assert a.h1.h1_betti.total_at(0) == a.m - 2
        checked += 1
    for _, _, a, _ in corpus:
        # analyze() hard-fails on any shape mismatch; re-assert the counts
        assert a.z.z_betti.total_at(0) == a.m - 1
        assert a.h1.h1_betti.total_at(0) == a.m - 2
        checked += 1
    assert checked == 208
    announce(6, f"N and Q Betti shapes match predictions on {checked} instances")


def test_criterion_07_mapping_cone_on_corpus(corpus):
    for _, _, a, _ in corpus:
        assert a.sigma_cone_ok
    announce(7, "computed sigma tables reachable by admissible cancellation, 200/200")


def test_criterion_08_theorem_suite_on_corpus(corpus):
    for seed, s, a, rep in corpus:
        bad = [r for r in rep.results if r.severity in ("violation", "anomaly")]
        assert not bad, f"seed {seed} (s={s}): {[(r.statement_id, r.severity) for r in bad]}"
        applicable = {r.statement_id for r in rep.results if r.hypothesis}
        assert set(ALWAYS_APPLICABLE) <= applicable
    announce(8, "T1-T16: zero violations and zero anomalies on the corpus")


def test_criterion_09_tau_plus_search():
    started = time.time()
    assert chern_and_formulas(5, 0, 3)["tau_plus"] == 10
    a_, s_ = 1, 2
    assert 3 * a_**2 + 3 * a_ * s_ + s_ * (s_ - 1) // 2 == 10
    for d, d1 in [(3, 2), (4, 3), (5, 3)]:
        hit = search_tau_plus(d, d1, budget=50, seed=1, field=F)
        assert hit is not None, f"no hit for (d, d1) = ({d}, {d1})"
        a = analyze(hit)
        target = chern_and_formulas(d, 0, d1)["tau_plus"]
        assert a.tau == target and a.exponents[0] == d1
        rep = check_all(a, statements=("T14", "T15"), lift_retry=False)
        assert all(r.hypothesis and r.holds for r in rep.results)
    assert time.time() - started < 120
    announce(9, "tau_+ arithmetic and search hits at (3,2), (4,3), (5,3)")


def test_criterion_10_oracle_redundancy(corpus):
    started = time.time()
    for name in ("nodal-cubic", "nodal-quartic", "cubic-plus-line", "two-conics",
                 "triangle", "lines-4", "lines-5"):
        a = analyze(catalog_entry(name).input_over(F), deep_checks=True)
        assert a.tau == (a.d - 1) ** 2 - a.c2
    # spot-check the corpus: full Hilbert comparison on the small instances
    spot = [a for _, s, a, _ in corpus if s <= 3][:10]
    for a in spot:
        verify_hilbert_consistency(a)
    # the staircase/Chern identity holds corpus-wide
    for _, _, a, _ in corpus:
        assert a.tau == (a.d - 1) ** 2 - a.c2
    assert time.time() - started < 20
    announce(10, "independent Hilbert evaluators agree; staircase tau = (d-1)^2 - c2")


def test_criterion_11_determinism(tmp_path):
    from qcisyz import cli

    args = ["fuzz", "--s", "2", "--count", "8", "--seed", "11"]
    blobs = []
    for jobs, name in [(1, "r1"), (1, "r2"), (3, "r3")]:
        path = tmp_path / f"{name}.json"
        assert cli.main(args + ["--jobs", str(jobs), "--output-file", str(path)]) == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    p1, p2 = tmp_path / "a1.json", tmp_path / "a2.json"
    for p in (p1, p2):
        assert cli.main(["analyze", "--curve", "x*y*z", "--output-file", str(p)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    announce(11, "byte-identical JSON across repeated runs and --jobs settings")
