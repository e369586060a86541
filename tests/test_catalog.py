import random

import pytest
from hypothesis import given, settings, strategies as st

from qcisyz.catalog import (
    _kernel_basis_in_degree,
    builtin_catalog,
    catalog_entry,
    random_form,
    random_qci,
    search_tau_plus,
)
from qcisyz.fields import QQ, PrimeField
from qcisyz.linalg import monomials_of_degree
from qcisyz.pipeline import analyze, chern_and_formulas
from qcisyz.poly import Polynomial
from qcisyz.theorems import check_all

F = PrimeField(32003)

EXPECTED_NAMES = {
    "nodal-cubic",
    "nodal-quartic",
    "cubic-plus-line",
    "two-conics",
    "triangle",
    "lines-4",
    "lines-5",
    "lines-6",
}


def test_catalog_contents():
    names = {e.name for e in builtin_catalog()}
    assert EXPECTED_NAMES <= names
    with pytest.raises(KeyError):
        catalog_entry("no-such-entry")


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
def test_catalog_entries_verify_over_prime_field(entry):
    assert entry.verify(F) == {}


@pytest.mark.parametrize("name", ["nodal-cubic", "triangle", "two-conics"])
def test_small_entries_verify_over_rationals(name):
    assert catalog_entry(name).verify(QQ) == {}


def test_line_arrangements_have_nodal_tau():
    # generic arrangements: tau = number of intersection points = binom(d,2)
    for name, d in [("lines-4", 4), ("lines-5", 5), ("lines-6", 6)]:
        assert catalog_entry(name).expected["tau"] == d * (d - 1) // 2


def test_random_qci_is_valid_and_deterministic():
    a = random_qci(2, F, seed=1)
    b = random_qci(2, F, seed=1)
    assert [p.terms for p in a.polys] == [p.terms for p in b.polys]
    assert all(p.degree() == 2 and p.is_homogeneous() for p in a.polys)
    res = analyze(a)
    assert res.tau >= 1


def test_random_qci_different_seeds_differ():
    a = random_qci(3, F, seed=1)
    b = random_qci(3, F, seed=2)
    assert [p.terms for p in a.polys] != [p.terms for p in b.polys]


def test_random_qci_rejects_degree_one():
    with pytest.raises(ValueError):
        random_qci(1, F, seed=0)


def test_search_tau_plus_immediate_hit():
    hit = search_tau_plus(3, 2, budget=10, seed=1, field=F)
    assert hit is not None
    a = analyze(hit)
    assert a.tau == chern_and_formulas(3, 0, 2)["tau_plus"] == 1
    assert a.exponents[0] == 2
    rep = check_all(a, statements=("T14", "T15"), lift_retry=False)
    assert all(r.holds for r in rep.results)


def test_search_tau_plus_rejects_bad_range():
    from qcisyz.pipeline import InputError

    with pytest.raises(InputError):
        search_tau_plus(4, 1, budget=1, seed=0, field=F)


def _reference_kernel(cols, m, field, deg):
    """Dense elimination of the transposed multiplication map, each row
    carried with its identity row; a row whose left part reduces to zero
    gives the kernel vector in its right part."""
    dom = [(i, mono) for i in range(m) for mono in monomials_of_degree(deg)]
    codom = [(j, mono) for j in range(len(cols)) for mono in monomials_of_degree(deg + 1)]
    n, width = len(dom), len(codom)
    pivots, kernel = {}, []
    for r, (i, mono) in enumerate(dom):
        row = [field.zero] * (width + n)
        row[width + r] = field.one
        for j, col in enumerate(cols):
            for cm, cc in col[i].terms.items():
                k = codom.index((j, tuple(a + b for a, b in zip(mono, cm))))
                row[k] = field.add(row[k], cc)
        for c in sorted(pivots):
            if row[c] != field.zero:
                factor = row[c]
                row = [field.sub(a, field.mul(factor, b)) for a, b in zip(row, pivots[c])]
        lead = next((c for c in range(width) if row[c] != field.zero), None)
        if lead is None:
            kernel.append(row[width:])
        else:
            inv = field.inv(row[lead])
            pivots[lead] = [field.mul(inv, a) for a in row]
    return [
        tuple(
            {mono: c for (i2, mono), c in zip(dom, v) if i2 == i and c != field.zero}
            for i in range(m)
        )
        for v in kernel
    ]


@settings(max_examples=20, deadline=None)
@given(
    field=st.sampled_from([F, QQ]),
    d_d1=st.sampled_from([(3, 2), (4, 2), (4, 3), (5, 3)]),
    seed=st.integers(0, 10**6),
)
def test_kernel_basis_matches_dense_reference(field, d_d1, seed):
    d, d1 = d_d1
    m = 2 * d1 - d + 3
    rng = random.Random(seed)
    cols = [tuple(random_form(field, 1, rng) for _ in range(m)) for _ in range(m - 2)]
    deg = rng.randint(d1 - 1, d1)
    kernel = _kernel_basis_in_degree(cols, m, field, deg)
    expected = _reference_kernel(cols, m, field, deg)
    assert [[list(p.terms.items()) for p in v] for v in kernel] == [
        [list(t.items()) for t in v] for v in expected
    ]
    for v in kernel:
        if field is F:  # plain ints, never numpy scalars
            assert all(type(c) is int for p in v for c in p.terms.values())
        for col in cols:
            dot = Polynomial.zero(field)
            for p, c in zip(v, col):
                dot = dot + p * c
            assert dot.is_zero()
