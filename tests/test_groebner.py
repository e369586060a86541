import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qcisyz import groebner
from qcisyz.catalog import builtin_catalog, catalog_entry, random_nonzero_form, random_qci
from qcisyz.errors import InputError
from qcisyz.fields import QQ, PrimeField
from qcisyz.groebner import (
    RawBasis,
    SubmoduleGB,
    TermKeys,
    _index_leads,
    _line_cut,
    _normal_form_terms,
    _reducer,
    _sorted_with_leads,
    buchberger,
    colon,
    groebner_basis,
    hilbert_numerator,
    saturate,
    syzygies,
)
from qcisyz.linalg import minimal_generators
from qcisyz.modules import FreeGradedModule, ModuleElement, poly_to_element
from qcisyz.orders import (
    block_elim_key,
    hilbert_polynomial,
    mono_mul,
    top_key,
)
from qcisyz.parsing import parse_polynomial
from qcisyz.poly import Polynomial, partial_derivatives

F = PrimeField(32003)


# monomial divisibility for the reference Buchberger and staircase counts
def mono_divides(a, b) -> bool:
    """a | b componentwise."""
    return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]


def mono_div(a, b):
    """a / b; caller guarantees divisibility."""
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def mono_lcm(a, b):
    return (max(a[0], b[0]), max(a[1], b[1]), max(a[2], b[2]))


def polys(texts, field=F):
    return [parse_polynomial(t, field) for t in texts]


def random_homogeneous(field, deg, rng):
    from qcisyz.linalg import monomials_of_degree

    terms = {}
    for m in monomials_of_degree(deg):
        c = field.coerce(rng.randrange(field.prime))
        if c != field.zero:
            terms[m] = c
    return Polynomial(field, terms)


def test_reduced_basis_of_principal_ideal():
    gb = groebner_basis(polys(["2*x^2 + 2*x*y"]))
    assert len(gb.basis) == 1
    # reduced bases are monic
    assert gb.basis[0].lead(gb.keyfn)[1] == F.one


def test_normal_form_properties():
    gb = groebner_basis(polys(["x^2 - y*z", "y^2 - x*z"]))
    f = parse_polynomial("x^3 + y^3 + z^3", F)
    e = poly_to_element(f, gb.ambient)
    nf = gb.normal_form(e)
    assert gb.normal_form(nf) == nf  # idempotent
    # f - nf lies in the ideal
    assert gb.normal_form(e - nf).is_zero()


def test_membership():
    gb = groebner_basis(polys(["x^2", "x*y + y^2"]))
    member = poly_to_element(parse_polynomial("x^3 + x^2*y", F), gb.ambient)
    other = poly_to_element(parse_polynomial("y^2", F), gb.ambient)
    assert gb.normal_form(member).is_zero()
    assert not gb.normal_form(other).is_zero()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_buchberger_criterion_random_ideals(seed):
    """Every S-pair of the reduced basis reduces to zero."""
    rng = random.Random(seed)
    gens = [
        random_homogeneous(F, rng.randint(1, 3), rng) for _ in range(rng.randint(2, 3))
    ]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    gb = groebner_basis(gens)
    basis = gb.basis
    leads = [e.lead(gb.keyfn)[0][1] for e in basis]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            l = mono_lcm(leads[i], leads[j])
            s = basis[i].mono_shift(mono_div(l, leads[i]), F.one) - basis[
                j
            ].mono_shift(mono_div(l, leads[j]), F.one)
            assert gb.normal_form(s).is_zero()


def test_syzygy_generators_annihilate():
    gens = polys(["x*y", "x*z", "y*z"])
    for s in syzygies(gens):
        acc = Polynomial.zero(F)
        for i, g in enumerate(gens):
            acc = acc + s.component(i) * g
        assert acc.is_zero()


def test_koszul_syzygies_of_regular_sequence():
    # a regular sequence of two forms has only the Koszul syzygy
    f, g = polys(["x^2 + y*z", "y^3"])
    syz = syzygies([f, g])
    assert len(syz) == 1
    s = syz[0]
    assert s.component(0) * f + s.component(1) * g == Polynomial.zero(F)


def test_colon_example():
    I = polys(["x*y", "x*z", "y*z"])
    x = parse_polynomial("x", F)
    assert groebner_basis(colon(I, x)).basis == groebner_basis(polys(["y", "z"])).basis


def _saturation(gens):
    """Generators of the saturation: its reduced basis, as polynomials."""
    return [e.component(0) for e in saturate(groebner_basis(gens)).basis]


def test_saturate_strips_irrelevant_power():
    I = groebner_basis(polys(["x^2", "x*y", "x*z"]))
    assert saturate(I).basis == groebner_basis(polys(["x"])).basis


def test_saturate_of_saturated_ideal_is_identity():
    I = groebner_basis(polys(["x", "y"]))
    assert saturate(I).basis == I.basis


# reduced grevlex bases of the saturated jacobian ideals, as the earlier
# colon-and-intersection saturation computed them over the rationals
LINES_4 = "x*y*z*(x + y + z)"
LINES_4_SAT = ["y^2*z + y*z^2", "x*y*z", "x^2*z + x*z^2", "x^2*y + x*y^2"]
LINES_6 = "x*y*z*(x + y + z)*(x + 2*y + 3*z)*(x + 4*y + 9*z)"
LINES_6_SAT = [
    "y^4*z - 1/24*x^2*y*z^2 - 23/24*x*y^2*z^2 + 19/4*y^3*z^2 - 2*x*y*z^3"
    " + 57/8*y^2*z^3 + 27/8*y*z^4",
    "x*y^3*z - 1/3*x^2*y*z^2 + 13/3*x*y^2*z^2 + 5*x*y*z^3",
    "x^2*y^2*z + 10/3*x^2*y*z^2 - 1/3*x*y^2*z^2 - 2*x*y*z^3",
    "x^3*y*z - 16/3*x^2*y*z^2 - 8/3*x*y^2*z^2 - x*y*z^3",
    "x^4*z + 13*x^3*z^2 + 124/3*x^2*y*z^2 + 80/3*x*y^2*z^2 + 39*x^2*z^3"
    " + 52*x*y*z^3 + 27*x*z^4",
    "x^4*y + 7*x^3*y^2 + 14*x^2*y^3 + 8*x*y^4 - 39*x^2*y*z^2 - 57*x*y^2*z^2"
    " - 54*x*y*z^3",
]


@pytest.mark.parametrize("curve, expected", [(LINES_4, LINES_4_SAT), (LINES_6, LINES_6_SAT)])
def test_saturate_line_arrangement_needs_another_line(curve, expected):
    J = list(partial_derivatives(parse_polynomial(curve, QQ)))
    # z = 0 passes through nodes of the arrangement, so z is no valid line
    z = parse_polynomial("z", QQ)
    assert groebner_basis(J + [z]).colength() > 0
    assert _saturation(J) == polys(expected, QQ)


def _colon_stays_inside(gens, v, field):
    gb = groebner_basis(gens)
    q = colon(gens, parse_polynomial(v, field))
    return all(gb.normal_form(poly_to_element(g, gb.ambient)).is_zero() for g in q)


@pytest.mark.parametrize("seed", [0, 1])
def test_saturation_is_saturated(seed):
    # the points of a random triple lie off x = 0, y = 0 and z = 0, so
    # I_sat : v = I_sat for v = x, y, z; the unsaturated J fails it
    J = list(random_qci(3, F, seed).polys)
    sat = _saturation(J)
    for v in ("x", "y", "z"):
        assert _colon_stays_inside(sat, v, F)
        assert not _colon_stays_inside(J, v, F)


@pytest.mark.parametrize("field", [F, QQ])
def test_line_arrangement_saturation_is_saturated(field):
    J = list(partial_derivatives(parse_polynomial(LINES_6, field)))
    v = "x + 5*y + 7*z"
    assert groebner_basis(J + [parse_polynomial(v, field)]).colength() == 0
    assert _colon_stays_inside(_saturation(J), v, field)
    assert not _colon_stays_inside(J, v, field)


def test_saturate_raises_when_every_line_meets_the_subscheme():
    # over GF(2) each line z + a*x + b*y meets z = 0 in one of the three
    # rational points of z = 0, and V(I) holds all three
    F2 = PrimeField(2)
    with pytest.raises(InputError, match="GF\\(2\\)"):
        saturate(groebner_basis(polys(["x^2*y + x*y^2", "x*z^2", "z^3"], F2)))


def _line(field, a, b):
    return Polynomial.from_terms(field, [((0, 0, 1), 1), ((1, 0, 0), a), ((0, 1, 0), b)])


def _cut_test_ideal(kind, field, l, rng):
    """Generators of an ideal of the given kind, for the line l."""
    x, y, z = (Polynomial.variable(field, i) for i in range(3))
    deg = rng.randint(1, 3)
    forms = [random_nonzero_form(field, deg, rng) for _ in range(6)]
    if kind == "triple":  # zero-dimensional
        return list(random_qci(rng.randint(2, 3), field, rng.randrange(10**6)).polys)
    if kind == "line":
        return [x]
    if kind == "embedded":  # (x) with an embedded point at (0 : 0 : 1)
        return [x * x, x * y, x * z]
    if kind == "inside-l":  # every restriction to l vanishes
        return [l * f for f in forms[:3]]
    if kind == "one-vanishes":  # one generator vanishes on l
        return [l * forms[0], forms[1], forms[2]]
    # kind == "y-divides": every restriction to l is divisible by y
    return [y * f + l * g for f, g in zip(forms[:3], forms[3:])]


@pytest.mark.parametrize("field", [PrimeField(7), F, QQ], ids=str)
@pytest.mark.parametrize("kind", ["triple", "line", "embedded", "inside-l", "one-vanishes", "y-divides"])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10**6), a=st.integers(-2, 3), b=st.integers(-2, 3))
@example(seed=0, a=0, b=0)
@example(seed=1, a=0, b=2)
@example(seed=2, a=-1, b=0)
def test_line_cut_has_the_hilbert_polynomial_of_the_section(kind, field, seed, a, b):
    # the cut value from a gcd of the restrictions to l = z + a*x + b*y
    # equals the Hilbert polynomial of S/(I + l) from a Groebner basis
    a, b = field.coerce(a), field.coerce(b)
    l = _line(field, a, b)
    gens = _cut_test_ideal(kind, field, l, random.Random(seed))
    reference = groebner_basis(gens + [l]).numerator
    assert _line_cut(gens, a, b) == hilbert_polynomial(reference)


def _counted_saturate(gb, monkeypatch):
    """The bases Buchberger builds in saturate(gb), and the number of shears."""
    runs, shears = [], []
    buchberger_, shear_ = groebner.buchberger, groebner._shear

    def counted_buchberger(*args):
        runs.append(buchberger_(*args))
        return runs[-1]

    def counted_shear(*args):
        shears.append(args)
        return shear_(*args)

    monkeypatch.setattr(groebner, "buchberger", counted_buchberger)
    monkeypatch.setattr(groebner, "_shear", counted_shear)
    saturate(gb)
    return runs, len(shears)


def test_saturate_accepts_z_with_one_run_and_no_shear(monkeypatch):
    J = list(random_qci(5, F, 3).polys)
    runs, shears = _counted_saturate(SubmoduleGB(J), monkeypatch)
    assert (len(runs), shears) == (1, 0)


@pytest.mark.parametrize("name", ["lines-4", "lines-5", "lines-6"])
def test_rejected_lines_cost_no_groebner_run(name, monkeypatch):
    J = list(partial_derivatives(catalog_entry(name).input_over(QQ).polys[0]))
    runs, shears = _counted_saturate(SubmoduleGB(J), monkeypatch)
    # the moved ideal's basis and the final one, however many lines were
    # rejected; the three generators moved, the moved basis moved back
    assert len(runs) == 2
    assert shears == len(J) + len(runs[0].elements)


def test_zero_dimensional_and_colength():
    gb = groebner_basis(polys(["x", "y"]))
    assert gb.colength() == 1
    gb2 = groebner_basis(polys(["x"]))
    assert gb2.colength() is None  # V(x) is a line
    # three points from a cone curve's singular locus
    f = parse_polynomial("x^3 + y^3 + z^3 - 3*x*y*z", F)
    gb3 = groebner_basis(list(partial_derivatives(f)))
    assert gb3.colength() == 3


def test_hilbert_numerator_matches_staircase():
    gb = groebner_basis(polys(["x^2", "y^3"]))
    num = hilbert_numerator(tuple(e.lead(gb.keyfn)[0][1] for e in gb.basis))
    # S/(x^2, y^3): series (1-t^2)(1-t^3)/(1-t)^3
    assert num == {0: 1, 2: -1, 3: -1, 5: 1}


def _standard_monomial_count(leads, t):
    """Degree-t monomials divisible by no lead, counted one by one."""
    from qcisyz.linalg import monomials_of_degree

    return sum(1 for m in monomials_of_degree(t) if not any(mono_divides(g, m) for g in leads))


def _series_coefficient(num, t):
    """The degree-t coefficient of num / (1-t)^3."""
    return sum(c * (t - a + 2) * (t - a + 1) // 2 for a, c in num.items() if a <= t)


def _assert_numerator_counts_staircase(leads):
    # at every degree from 0 the series counts the standard monomials, and
    # past the numerator's degree HF(S/I) is the Hilbert polynomial
    num = hilbert_numerator(leads)
    e0, e1, e2 = hilbert_polynomial(num)
    t0 = max(num, default=0) + 1
    for t in range(t0 + 4):
        count = _standard_monomial_count(leads, t)
        assert _series_coefficient(num, t) == count, (leads, t)
        if t >= t0:
            assert e0 * (t + 1) * (t + 2) // 2 + e1 * (t + 1) + e2 == count, (leads, t)


@pytest.mark.parametrize(
    "leads,expected",
    [
        ((), {0: 1}),
        (((0, 0, 0),), {}),
        (((0, 0, 0), (1, 2, 0)), {}),
        (((0, 0, 3),), {0: 1, 3: -1}),
        (((0, 0, 2), (0, 0, 5)), {0: 1, 2: -1}),
        (((2, 0, 0), (2, 0, 0), (0, 3, 0), (2, 1, 0), (3, 3, 1)), {0: 1, 2: -1, 3: -1, 5: 1}),
        (((1, 0, 1), (0, 1, 2), (1, 1, 1), (0, 0, 4), (0, 1, 3)), None),
    ],
)
def test_staircase_numerator_fixed_cases(leads, expected):
    # the empty ideal, a unit lead, pure z-powers, duplicates and non-minimal
    # leads (x^2, x^2, y^3, x^2 y and x^3 y^3 z generate (x^2, y^3))
    if expected is not None:
        assert hilbert_numerator(leads) == expected
    _assert_numerator_counts_staircase(leads)


_monomial_ideals = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=8
)


@settings(max_examples=60, deadline=None)
@given(first=_monomial_ideals, second=_monomial_ideals)
def test_staircase_values_match_standard_monomial_count(first, second):
    for leads in (first, second):
        _assert_numerator_counts_staircase(leads)
    # the numerator's degree is at most that of the lcm of all leads, 18, so
    # from degree 18 on HF(S/I) is its Hilbert polynomial: constant iff V(I)
    # is finite, and then the colength
    eventual = [_standard_monomial_count(first, t) for t in (18, 19, 20)]
    expected = eventual[0] if eventual[0] == eventual[1] == eventual[2] else None
    gb = groebner_basis([Polynomial(F, {m: F.one}) for m in first])
    assert gb.colength() == expected
    # V(I) is infinite iff I lies in some (v): one variable divides every lead
    assert (expected is None) == any(all(m[i] for m in first) for i in range(3))


def test_groebner_over_rationals():
    gb = groebner_basis(polys(["x^2 - y*z", "x*y - z^2"], QQ))
    assert gb.normal_form(
        poly_to_element(parse_polynomial("x*z^2 - y^2*z", QQ), gb.ambient)
    ).is_zero()


# --- the reduction kernel against a max()-rescan reference -----------------


def _rescan_normal_form(terms, field, by_pos, keyfn, seen):
    """The textbook kernel: each step evaluates keyfn on every pending term to
    find the largest. Reducers are (lead mono, term dict) by lead position
    (see `_plain_reducers`). Every term that is ever pending is added to
    seen."""
    terms = dict(terms)
    seen.update(terms)
    out = {}
    while terms:
        t = max(terms, key=keyfn)
        c = terms.pop(t)
        pos, m = t
        red = next(((gm, g) for gm, g in by_pos.get(pos, ()) if mono_divides(gm, m)), None)
        if red is None:
            out[t] = c
            continue
        gm, gterms = red
        shift = mono_div(m, gm)
        for (p2, m2), cc in gterms.items():
            if (p2, m2) == (pos, gm):
                continue
            t2 = (p2, mono_mul(m2, shift))
            seen.add(t2)
            v = field.sub(terms.get(t2, field.zero), field.mul(cc, c))
            if v == field.zero:
                terms.pop(t2, None)
            else:
                terms[t2] = v
    return out


def _plain_reducers(reducers):
    """(lead, term dict) pairs indexed by lead position, as the reference
    reads them."""
    by_pos = {}
    for (pos, m), terms in reducers:
        by_pos.setdefault(pos, []).append((m, terms))
    return by_pos


def _kernel_reducers(reducers, keys, field):
    """The same reducers indexed for the kernel."""
    by_pos = {}
    for lead, terms in reducers:
        by_pos.setdefault(lead[0], []).append(_reducer(terms, lead, keys, field))
    return by_pos


def _dense_element(ambient, field, degree, rng):
    """Every monomial of every component, with random coefficients."""
    from qcisyz.linalg import monomials_of_degree

    terms = {}
    for pos, tw in enumerate(ambient.twists):
        for m in monomials_of_degree(degree - tw):
            c = field.coerce(rng.randrange(1, 100))
            terms[(pos, m)] = c
    return ModuleElement(ambient, field, terms)


@pytest.mark.parametrize("syz", [False, True], ids=["top_key", "block_elim_key"])
def test_kernel_evaluates_each_order_key_once(syz):
    # a jacobian-like syzygy computation at s = 5, the heaviest corpus degree
    J = list(random_qci(5, F, 0).polys)
    if syz:
        # the block run of J's syzygy GB: g_i + e_i under the elimination order
        big = FreeGradedModule((0, 5, 5, 5))
        hs = []
        for i, g in enumerate(J):
            terms = poly_to_element(g).terms
            terms[(1 + i, (0, 0, 0))] = F.one
            hs.append(ModuleElement(big, F, terms))
        basis = buchberger(hs, big, F, block_elim_key(1))
    else:
        basis = SubmoduleGB(J)._plain
    calls = [0]

    def counting(t):
        calls[0] += 1
        return basis.keyfn(t)

    fresh = RawBasis(basis.ambient, basis.field, counting, basis.elements, basis.leads)
    fresh.by_pos  # the reducers are indexed, and their terms keyed, once
    e = _dense_element(basis.ambient, F, max(x.degree() for x in basis.elements) + 2, random.Random(5))
    seen = set()
    plain = _plain_reducers(zip(basis.leads, (x.terms for x in basis.elements)))
    expected = _rescan_normal_form(e.terms, F, plain, basis.keyfn, seen)
    calls[0] = 0
    nf = fresh.normal_form(e)
    assert list(nf.terms.items()) == list(expected.items())
    assert len(nf.terms) < len(e.terms)  # lead terms of the basis were reduced away
    # keyfn runs on the input's terms only; every other key is a sum
    assert calls[0] <= len(e.terms) <= len(seen)


def _random_reducers(field, rank, keyfn, rng, count, coefficients=range(1, 10)):
    """Monic elements of a rank-`rank` module, each scaled by its lead."""
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            m = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
            terms[(rng.randrange(rank), m)] = field.coerce(rng.choice(coefficients))
        lead = max(terms, key=keyfn)
        inv = field.inv(terms[lead])
        out.append((lead, {t: field.mul(c, inv) for t, c in terms.items()}))
    return out


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    field=st.sampled_from([F, QQ]),
    kind=st.sampled_from(["top_key", "block_elim_key"]),
)
def test_kernel_matches_rescan_reference(seed, field, kind):
    rng = random.Random(seed)
    rank = rng.randint(1, 4)
    keyfn = top_key if kind == "top_key" else block_elim_key(1)
    reducers = _random_reducers(field, rank, keyfn, rng, rng.randint(1, 6))
    element = {}
    for _ in range(rng.randint(1, 12)):
        m = (rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5))
        element[(rng.randrange(rank), m)] = field.coerce(rng.randint(1, 9))
    expected = _rescan_normal_form(element, field, _plain_reducers(reducers), keyfn, set())
    keys = TermKeys(keyfn)
    got = _normal_form_terms(element, field, _kernel_reducers(reducers, keys, field), keys)
    assert list(got.items()) == list(expected.items())


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    p=st.sampled_from([7, 32003]),
    kind=st.sampled_from(["top_key", "block_elim_key"]),
)
def test_kernel_reduces_coefficients_mod_p_once(seed, p, kind):
    # with coefficients 1, 2, (p + 1)/2, p - 2 and p - 1, pending sums such
    # as 1 - 2 * (p + 1)/2 = -p vanish mod p but not as integers
    field = PrimeField(p)
    coefficients = (1, 2, (p + 1) // 2, p - 2, p - 1)
    rng = random.Random(seed)
    rank = rng.randint(1, 3)
    keyfn = top_key if kind == "top_key" else block_elim_key(1)
    reducers = _random_reducers(field, rank, keyfn, rng, rng.randint(1, 6), coefficients)
    element = {}
    for _ in range(rng.randint(1, 12)):
        m = (rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5))
        element[(rng.randrange(rank), m)] = rng.choice(coefficients)
    expected = _rescan_normal_form(element, field, _plain_reducers(reducers), keyfn, set())
    keys = TermKeys(keyfn)
    got = _normal_form_terms(element, field, _kernel_reducers(reducers, keys, field), keys)
    assert list(got.items()) == list(expected.items())
    assert all(1 <= c < p for c in got.values())


def test_kernel_skips_a_term_that_vanishes_only_mod_p():
    # 2x + y - 2 * (x + y/2): the pending y-coefficient is 1 - (p + 1) = -p
    field = PrimeField(7)
    keys = TermKeys(top_key)
    x, y = (0, (1, 0, 0)), (0, (0, 1, 0))
    by_pos = _kernel_reducers([(x, {x: 1, y: 4})], keys, field)
    assert _normal_form_terms({x: 2, y: 1}, field, by_pos, keys) == {}
    assert _normal_form_terms({x: 2, y: 2}, field, by_pos, keys) == {y: 1}


_RATIONAL_COEFFICIENTS = (Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5), Fraction(3), Fraction(-1))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), kind=st.sampled_from(["top_key", "block_elim_key"]))
def test_fraction_free_kernel_matches_fraction_division(seed, kind):
    # monic reducers with coefficients such as 1/2, -2/3 and 7/5 have
    # denominators a != 1, so the kernel rescales its integers and den
    rng = random.Random(seed)
    rank = rng.randint(1, 3)
    keyfn = top_key if kind == "top_key" else block_elim_key(1)
    reducers = _random_reducers(QQ, rank, keyfn, rng, rng.randint(1, 6), _RATIONAL_COEFFICIENTS)
    element = {}
    for _ in range(rng.randint(1, 12)):
        m = (rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4))
        element[(rng.randrange(rank), m)] = rng.choice(_RATIONAL_COEFFICIENTS) * rng.randint(1, 9)
    expected = _rescan_normal_form(element, QQ, _plain_reducers(reducers), keyfn, set())
    keys = TermKeys(keyfn)
    got = _normal_form_terms(element, QQ, _kernel_reducers(reducers, keys, QQ), keys)
    assert list(got.items()) == list(expected.items())
    assert all(type(c) is Fraction for c in got.values())


def test_fraction_free_step_rescales_the_output_and_the_denominator():
    # x + y reduced by y + (2/3) z: the reducer's tail is (z, -2) over a = 3;
    # cancelling y scales the output x and den by 3, giving x - (2/3) z
    keys = TermKeys(top_key)
    x, y, z = (0, (1, 0, 0)), (0, (0, 1, 0)), (0, (0, 0, 1))
    by_pos = _kernel_reducers([(y, {y: QQ.one, z: Fraction(2, 3)})], keys, QQ)
    assert by_pos[0] == [((0, 1, 0), keys[y], 3, [(keys[z], -2)])]
    assert _normal_form_terms({x: QQ.one, y: QQ.one}, QQ, by_pos, keys) == {
        x: Fraction(1),
        z: Fraction(-2, 3),
    }


def test_reducers_over_a_prime_field_are_integral():
    field = PrimeField(7)
    keys = TermKeys(top_key)
    x, y, z = (0, (1, 0, 0)), (0, (0, 1, 0)), (0, (0, 0, 1))
    gm, gkey, a, tail = _reducer({x: 1, y: 4, z: 6}, x, keys, field)
    assert (gm, gkey, a) == ((1, 0, 0), keys[x], 1)
    assert tail == [(keys[y], -4), (keys[z], -6)]
    assert all(type(c) is int for _, c in tail)


# --- the packed key layout the kernel relies on ----------------------------


@st.composite
def _monomials(draw, max_degree):
    a = draw(st.integers(0, max_degree))
    b = draw(st.integers(0, max_degree - a))
    return (a, b, draw(st.integers(0, max_degree - a - b)))


_key_functions = st.one_of(st.just(top_key), st.integers(0, 6).map(block_elim_key))


@settings(max_examples=100, deadline=None)
@given(
    keyfn=_key_functions,
    positions=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    m=_monomials(10),
    n=_monomials(10),
    s=_monomials(10),
)
def test_packed_key_of_a_shift_is_one_add(keyfn, positions, m, n, s):
    # key(pos, m * x^s) - key(pos, m) depends on s alone, at degrees <= 20
    keys = TermKeys(keyfn)
    (p, q) = positions
    delta = keys[(p, mono_mul(m, s))] - keys[(p, m)]
    assert delta == keys[(q, mono_mul(n, s))] - keys[(q, n)]


@settings(max_examples=100, deadline=None)
@given(
    keyfn=_key_functions,
    terms=st.lists(st.tuples(st.integers(0, 5), _monomials(20)), min_size=1, max_size=12),
)
def test_kernel_decodes_terms_from_the_low_key_fields(keyfn, terms):
    # with no reducer the normal form is the input, each term decoded from
    # its key, in decreasing order
    element = {t: F.one for t in terms}
    got = _normal_form_terms(element, F, {}, TermKeys(keyfn))
    assert list(got) == sorted(element, key=keyfn, reverse=True)


@pytest.mark.parametrize("keyfn", [top_key, block_elim_key(2)], ids=["top_key", "block_elim_key"])
@pytest.mark.parametrize("term", [(0, (1 << 31, 0, 0)), (0, (0, 0, (1 << 31) + 1)), ((1 << 31) + 1, (1, 0, 0))])
def test_packed_key_out_of_range_raises(keyfn, term):
    with pytest.raises(OverflowError):
        TermKeys(keyfn)[term]


# --- one-pass interreduction against the fixpoint loop it replaced ---------


def _fixpoint_reduced_basis(gens, field, keys):
    """Reference: Buchberger without criteria, whose basis is then
    interreduced by the fixpoint loop `buchberger` used to run: each element
    reduced by the already reduced ones, then by the later ones, in that
    order, until a whole pass changes nothing. Pairs are taken lowest lcm
    degree first: on these homogeneous inputs the basis then grows degree by
    degree, where last-in-first-out order ran for minutes on a drawn set
    over Q."""
    G, leads, pairs = [], [], []

    def add(terms):
        lead = next(iter(terms))
        pairs.extend((i, len(G)) for i, t in enumerate(leads) if t[0] == lead[0])
        G.append(ModuleElement(gens[0].ambient, field, terms).scale(field.inv(terms[lead])))
        leads.append(lead)

    for g in gens:
        terms = _normal_form_terms(g.terms, field, _index_leads(G, leads, keys), keys)
        if terms:
            add(terms)
    while pairs:
        i, j = min(pairs, key=lambda p: sum(mono_lcm(leads[p[0]][1], leads[p[1]][1])))
        pairs.remove((i, j))
        L = mono_lcm(leads[i][1], leads[j][1])
        s = G[i].mono_shift(mono_div(L, leads[i][1]), field.one) - G[j].mono_shift(
            mono_div(L, leads[j][1]), field.one
        )
        terms = _normal_form_terms(s.terms, field, _index_leads(G, leads, keys), keys)
        if terms:
            add(terms)

    changed = True
    while changed:
        changed = False
        G, leads = _sorted_with_leads(G, leads, keys)
        rest = _index_leads(G, leads, keys)
        out, out_leads, out_pos = [], [], {}
        for e, (pos, _) in zip(G, leads):
            rest[pos].pop(0)
            by_pos = {
                p: out_pos.get(p, []) + rest.get(p, []) for p in out_pos.keys() | rest.keys()
            }
            terms = _normal_form_terms(e.terms, field, by_pos, keys)
            if not terms:
                changed = True
                continue
            lead = next(iter(terms))
            r = ModuleElement(e.ambient, field, terms).scale(field.inv(terms[lead]))
            if r.terms != e.terms:
                changed = True
            out.append(r)
            out_leads.append(lead)
            out_pos.setdefault(lead[0], []).append(_reducer(r.terms, lead, keys, field))
        G, leads = out, out_leads
    return _sorted_with_leads(G, leads, keys)


@st.composite
def _generating_sets(draw):
    """One to three homogeneous elements of an ideal or a rank-2 module
    (twists 0 and 1), each with up to four terms of degree at most 3."""
    field = draw(st.sampled_from([F, QQ]))
    twists = draw(st.sampled_from([(0,), (0, 1)]))
    ambient = FreeGradedModule(twists)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, 3))
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            pos = draw(st.integers(0, len(twists) - 1))
            a = draw(st.integers(0, degree - twists[pos]))
            b = draw(st.integers(0, degree - twists[pos] - a))
            terms[(pos, (a, b, degree - twists[pos] - a - b))] = field.coerce(draw(st.integers(-9, 9)))
        terms = {t: c for t, c in terms.items() if c != field.zero}
        if terms:
            gens.append(ModuleElement(ambient, field, terms))
    return field, ambient, gens


# a drawn set on which the reference ran some 2500 times longer when it took
# its pairs last in, first out
_RANK_2 = FreeGradedModule((0, 1))
_SLOW_LIFO = (QQ, _RANK_2, [
    ModuleElement(_RANK_2, QQ, {t: Fraction(c) for t, c in terms.items()})
    for terms in (
        {(1, (0, 0, 1)): 3, (0, (0, 1, 1)): -4, (0, (0, 0, 2)): 5},
        {(1, (1, 0, 0)): 7, (0, (0, 2, 0)): 1, (0, (2, 0, 0)): 1},
        {(1, (2, 0, 0)): -2, (0, (3, 0, 0)): 6, (1, (1, 1, 0)): -7},
    )
])


@settings(max_examples=80, deadline=None)
@given(case=_generating_sets(), kind=st.sampled_from(["top_key", "block_elim_key"]))
@example(case=_SLOW_LIFO, kind="top_key")
def test_buchberger_interreduces_in_one_pass(case, kind):
    field, ambient, gens = case
    if not gens:
        return
    keyfn = top_key if kind == "top_key" else block_elim_key(1)
    got = buchberger(gens, ambient, field, keyfn)
    # reduced: monic, no lead divides another, no tail term divisible by a lead
    for e, (pos, m) in zip(got.elements, got.leads):
        assert e.terms[(pos, m)] == field.one
        assert max(e.terms, key=keyfn) == (pos, m)
        for p, m2 in e.terms:
            assert (p, m2) == (pos, m) or not any(
                q == p and mono_divides(lm, m2) for q, lm in got.leads
            )
    expected, expected_leads = _fixpoint_reduced_basis(gens, field, TermKeys(keyfn))
    assert [list(e.terms.items()) for e in got.elements] == [
        list(e.terms.items()) for e in expected
    ]
    assert got.leads == expected_leads


# --- J's syzygies capped at a degree ------------------------------------------

_CAP_FIELDS = [PrimeField(7), F, QQ]
_CAP_SOURCES = [entry.name for entry in builtin_catalog()] + [(s, seed) for s in (2, 3, 4, 5) for seed in (0, 1)]


def _jacobian_or_triple(source, field):
    if isinstance(source, str):
        inp = catalog_entry(source).input_over(field)
        return list(partial_derivatives(inp.polys[0]))
    s, seed = source
    return list(random_qci(s, field, seed).polys)


@pytest.mark.parametrize("field", _CAP_FIELDS, ids=["GF7", "GF32003", "QQ"])
@pytest.mark.parametrize(
    "source", _CAP_SOURCES, ids=[s if isinstance(s, str) else f"random-s{s[0]}-seed{s[1]}" for s in _CAP_SOURCES]
)
def test_capped_syzygies_have_the_minimal_generator_degrees_below_the_cap(field, source):
    """A syzygy run capped at degree t is a Groebner basis truncated there:
    its syzygies generate the syzygy module in every degree up to t, so
    their minimal generators sit in the degrees of the uncapped run's up to
    t, with the same multiplicities."""
    gens = _jacobian_or_triple(source, field)
    full = sorted(e.degree() for e in minimal_generators(syzygies(gens)))
    for t in range(full[0] - 1, full[-1] + 2):
        capped = syzygies(gens, max_degree=t)
        assert all(e.degree() <= t for e in capped)
        assert sorted(e.degree() for e in minimal_generators(capped)) == [a for a in full if a <= t]


def test_a_cap_at_the_generators_degree_keeps_their_linear_relations():
    """Generators of degree t join a run capped at t: two equal linear forms
    have the degree-1 syzygy e_0 - e_1, and a cap below 1 takes none of
    them."""
    gens = polys(["x", "x", "y"])
    capped = syzygies(gens, max_degree=1)
    assert [sorted(e.terms.items()) for e in capped] == [[((0, (0, 0, 0)), F.one), ((1, (0, 0, 0)), F.neg(F.one))]]
    assert syzygies(gens, max_degree=0) == []
