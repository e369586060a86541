"""Golden-bytes gate: the JSON outputs that define the schema keep their bytes.

Each output is compared by its sha256 digest with tests/golden_sha256.json:
the check records of the catalog over GF(32003) and over the rationals and
of the 200-triple acceptance corpus, of GF(32003) draws at s = 6 and 7
(where exponents and staircases are largest), two fuzz summaries, and four
search-tau-plus documents. A change that moves any byte fails here; the
digest file changes only together with a deliberate schema change.
"""

import hashlib
import json
from pathlib import Path

from qcisyz import cli
from qcisyz.catalog import builtin_catalog, random_qci
from qcisyz.fields import QQ, PrimeField
from qcisyz.pipeline import analyze
from qcisyz.report import analysis_to_json, render_json
from qcisyz.theorems import check_all

DIGESTS = Path(__file__).with_name("golden_sha256.json")

CLI_RUNS = {
    "fuzz-s2-seed3": ["fuzz", "--s", "2", "--seed", "3", "--count", "6"],
    "fuzz-s3-seed5": ["fuzz", "--s", "3", "--seed", "5", "--count", "6"],
    "tau-plus-3-2-fp": ["search-tau-plus", "--d", "3", "--d1", "2", "--seed", "1"],
    "tau-plus-4-3-fp": ["search-tau-plus", "--d", "4", "--d1", "3", "--seed", "1"],
    "tau-plus-5-3-fp": ["search-tau-plus", "--d", "5", "--d1", "3", "--seed", "1"],
    "tau-plus-3-2-q": ["search-tau-plus", "--d", "3", "--d1", "2", "--seed", "1", "--field", "q"],
}
# (s, seeds) of the `random_qci` draws over GF(32003) gated beyond the corpus.
LARGE_DRAWS = {6: range(4), 7: range(2)}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_record(a, report) -> str:
    return render_json(analysis_to_json(a, report))


def golden_digests(corpus, tmp_path) -> dict:
    """name -> sha256 of every gated output."""
    out = {}
    for field in (PrimeField(32003), QQ):
        for entry in builtin_catalog():
            a = analyze(entry.input_over(field))
            out[f"catalog-{field.kind}/{entry.name}"] = sha(check_record(a, check_all(a)))
    for seed, s, a, report in corpus:
        out[f"corpus/s{s}-{seed}"] = sha(check_record(a, report))
    for s, seeds in LARGE_DRAWS.items():
        for seed in seeds:
            a = analyze(random_qci(s, PrimeField(32003), seed))
            out[f"draw/s{s}-{seed}"] = sha(check_record(a, check_all(a)))
    for name, argv in CLI_RUNS.items():
        path = tmp_path / f"{name}.json"
        assert cli.main(argv + ["--output-file", str(path)]) == 0, name
        out[name] = sha(path.read_text())
    return out


def test_outputs_match_golden_digests(corpus, tmp_path):
    expected = json.loads(DIGESTS.read_text())
    got = golden_digests(corpus, tmp_path)
    assert got.keys() == expected.keys()
    changed = sorted(k for k in expected if got[k] != expected[k])
    assert not changed, f"{len(changed)} outputs changed bytes: {changed[:10]}"
