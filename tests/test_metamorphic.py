"""Metamorphic properties: the invariants of a q.c.i. triple do not depend
on the coordinates, nor on the order or scaling of its three forms, and
those of the catalog curves not on the field."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcisyz.catalog import builtin_catalog, catalog_entry, random_qci
from qcisyz.fields import QQ, PrimeField
from qcisyz.pipeline import QciInput, analyze
from qcisyz.poly import Polynomial

F = PrimeField(32003)


def invariants(inp):
    """tau, the exponents, the second-syzygy degrees and the Betti tables of
    AR, Sigma, N and Q."""
    return analysis_invariants(analyze(inp))


def analysis_invariants(a):
    tables = (a.ar_betti, a.sigma_betti, a.z and a.z.z_betti, a.h1 and a.h1.h1_betti)
    return a.tau, a.exponents, a.second_syzygy_degrees, tables


def substitute(f, forms):
    """f(forms[0], forms[1], forms[2])."""
    out = Polynomial.zero(f.field)
    for mono, c in f.terms.items():
        term = Polynomial.constant(f.field, c)
        for form, e in zip(forms, mono):
            for _ in range(e):
                term = term * form
        out = out + term
    return out


def random_invertible_forms(rng):
    """Three linear forms with an invertible coefficient matrix."""
    while True:
        m = [[F.random(rng) for _ in range(3)] for _ in range(3)]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if det % F.prime:
            break
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return [Polynomial.from_terms(F, zip(basis, row)) for row in m]


@settings(max_examples=10, deadline=None)
@given(s=st.sampled_from([2, 3]), seed=st.integers(0, 10**6))
def test_invariants_survive_a_change_of_coordinates(s, seed):
    inp = random_qci(s, F, seed)
    forms = random_invertible_forms(random.Random(seed))
    moved = QciInput.triple(*(substitute(f, forms) for f in inp.polys))
    assert invariants(moved) == invariants(inp)


@settings(max_examples=6, deadline=None)
@given(name=st.sampled_from(["lines-4", "lines-5", "cubic-plus-line"]), seed=st.integers(0, 10**6))
def test_curve_invariants_survive_a_change_of_coordinates(name, seed):
    # in the catalog's coordinates z = 0 passes through singular points,
    # in random ones it misses them
    inp = catalog_entry(name).input_over(F)
    forms = random_invertible_forms(random.Random(seed))
    moved = QciInput.curve(substitute(inp.polys[0], forms))
    assert invariants(moved) == invariants(inp)


def random_unimodular_forms(rng):
    """Three linear forms over the rationals whose coefficient matrix is an
    integer matrix of determinant 1 or -1."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(3):
        i, j = rng.sample(range(3), 2)
        k = rng.choice([-1, 1, 2])
        m[i] = [u + k * v for u, v in zip(m[i], m[j])]
    rng.shuffle(m)
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return [Polynomial.from_terms(QQ, zip(basis, row)) for row in m]


@settings(max_examples=6, deadline=None)
@given(name=st.sampled_from(["lines-4", "cubic-plus-line"]), seed=st.integers(0, 10**6))
def test_curve_invariants_survive_a_change_of_coordinates_over_q(name, seed):
    inp = catalog_entry(name).input_over(QQ)
    forms = random_unimodular_forms(random.Random(seed))
    moved = QciInput.curve(substitute(inp.polys[0], forms))
    assert invariants(moved) == invariants(inp)


@settings(max_examples=10, deadline=None)
@given(
    s=st.sampled_from([2, 3]),
    seed=st.integers(0, 10**6),
    perm=st.permutations([0, 1, 2]),
    scales=st.lists(st.integers(1, F.prime - 1), min_size=3, max_size=3),
)
def test_invariants_survive_permuting_and_rescaling_the_forms(s, seed, perm, scales):
    inp = random_qci(s, F, seed)
    shuffled = QciInput.triple(*(inp.polys[i].scale(c) for i, c in zip(perm, scales)))
    assert invariants(shuffled) == invariants(inp)


# rationals whose denominators and numerators are not 1
RATIONAL_SCALES = (Fraction(3, 7), Fraction(-5, 2), Fraction(2, 9), Fraction(-11, 4))


@pytest.mark.parametrize("s", [2, 3])
@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    perm=st.permutations([0, 1, 2]),
    scales=st.lists(st.sampled_from(RATIONAL_SCALES), min_size=3, max_size=3),
)
def test_invariants_survive_rational_rescaling_over_q(s, seed, perm, scales):
    inp = random_qci(s, QQ, seed)
    shuffled = QciInput.triple(*(inp.polys[i].scale(c) for i, c in zip(perm, scales)))
    assert invariants(shuffled) == invariants(inp)


@settings(max_examples=4, deadline=None)
@given(
    name=st.sampled_from(["nodal-quartic", "cubic-plus-line", "two-conics", "lines-4"]),
    scale=st.sampled_from(RATIONAL_SCALES),
)
def test_curve_invariants_survive_rational_rescaling_over_q(name, scale):
    inp = catalog_entry(name).input_over(QQ)
    assert invariants(QciInput.curve(inp.polys[0].scale(scale))) == invariants(inp)


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
def test_catalog_invariants_do_not_depend_on_the_field(entry):
    # the catalog's integer equations over two primes and the rationals
    def over(field):
        a = analyze(entry.input_over(field))
        return analysis_invariants(a), a.classification

    expected = over(QQ)
    assert over(F) == expected
    assert over(PrimeField(65521)) == expected
