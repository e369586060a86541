"""Fixtures shared by the acceptance criteria and the golden-bytes gate, and
the hypothesis profiles.

Tier-1 runs the `derandomized` profile: every property test draws the same
examples on every run, at the counts its own `@settings` give. The `random`
profile draws afresh, for exploratory runs:
`pytest --hypothesis-profile random`.
"""

import pytest
from hypothesis import settings

from qcisyz.catalog import random_qci
from qcisyz.fields import PrimeField
from qcisyz.pipeline import analyze
from qcisyz.theorems import check_all

settings.register_profile("derandomized", derandomize=True)
settings.register_profile("random", derandomize=False)
settings.load_profile("derandomized")

MASTER_SEED = 20260826
CORPUS_SIZES = {2: 50, 3: 50, 4: 50, 5: 50}


@pytest.fixture(scope="session")
def corpus():
    """200 analyzed+checked random q.c.i. triples over GF(32003):
    (seed, s, analysis, check report)."""
    field = PrimeField(32003)
    out = []
    i = 0
    for s, count in CORPUS_SIZES.items():
        for _ in range(count):
            seed = MASTER_SEED * 2**32 + i
            a = analyze(random_qci(s, field, seed))
            out.append((seed, s, a, check_all(a)))
            i += 1
    return out
