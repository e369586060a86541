import pytest

from qcisyz.fields import PrimeField
from qcisyz.groebner import submodule_quotient
from qcisyz.linalg import (
    degree_basis,
    free_module_dim,
    hilbert_function,
    minimal_generators,
    monomials_of_degree,
    submodule_dim,
)
from qcisyz.modules import (
    FreeGradedModule,
    ModuleElement,
    PresentedModule,
    poly_to_element,
)
from qcisyz.parsing import parse_polynomial

F = PrimeField(32003)


def polys(texts, field=F):
    return [parse_polynomial(t, field) for t in texts]


def test_monomials_of_degree():
    assert len(monomials_of_degree(0)) == 1
    assert len(monomials_of_degree(3)) == 10
    assert all(sum(m) == 3 for m in monomials_of_degree(3))


def test_free_module_dims():
    # S(0) ⊕ S(-2): dims binom(t+2,2) + binom(t,2)
    twists = (0, 2)
    assert free_module_dim(twists, 0) == 1
    assert free_module_dim(twists, 2) == 6 + 1
    assert len(degree_basis(twists, 2)) == 7


def test_element_degree_respects_twists():
    amb = FreeGradedModule((1, 3))
    e = ModuleElement.from_components(
        amb, F, [parse_polynomial("x^2", F), parse_polynomial("1", F)]
    )
    assert e.degree() == 3
    assert e.is_homogeneous()


def test_presented_module_rejects_mismatched_ambient():
    amb = FreeGradedModule((0,))
    other = FreeGradedModule((0, 0))
    rel = ModuleElement(other, F, {(0, (0, 0, 0)): F.one})
    with pytest.raises(ValueError):
        PresentedModule(amb, [rel])


def test_hilbert_function_of_quotient_ring():
    amb = FreeGradedModule((0,))
    rels = [poly_to_element(g, amb) for g in polys(["x", "y", "z"])]
    P = PresentedModule(amb, rels)
    assert [hilbert_function(P, t) for t in range(4)] == [1, 0, 0, 0]


def test_hilbert_function_complete_intersection():
    amb = FreeGradedModule((0,))
    rels = [poly_to_element(g, amb) for g in polys(["x^2", "y^3"])]
    P = PresentedModule(amb, rels)
    # S/(x^2, y^3) has Hilbert series (1+t)(1+t+t^2)/(1-t)
    assert [hilbert_function(P, t) for t in range(6)] == [1, 3, 5, 6, 6, 6]


def test_submodule_dim_matches_ideal_dimension():
    gens = polys(["x^2", "x*y"])
    amb = FreeGradedModule((0,))
    elems = [poly_to_element(g, amb) for g in gens]
    # degree-3 span: x*{x^2, xy} + y*{...}: monomial count of x^2,xy times linear forms
    assert submodule_dim(elems, (0,), 2) == 2
    assert submodule_dim(elems, (0,), 3) == 5  # x^3, x^2y, x^2z, xy^2, xyz


def test_minimal_generators_drops_redundant():
    gens = polys(["x", "x^2 + y^2", "y"])
    amb = FreeGradedModule((0,))
    elems = [poly_to_element(g, amb) for g in gens]
    kept = minimal_generators(elems)
    assert [e.degree() for e in kept] == [1, 1]


def test_minimal_generators_deterministic():
    gens = polys(["x + y", "x - y", "2*x"])
    amb = FreeGradedModule((0,))
    elems = [poly_to_element(g, amb) for g in gens]
    kept1 = minimal_generators(elems)
    kept2 = minimal_generators(list(elems))
    assert kept1 == kept2 and len(kept1) == 2


def test_submodule_quotient_presents_quotient_ring_piece():
    # (x, y) / (x^2, xy, y^2, ...) : quotient of the maximal ideal, generated
    # by x, y in degree 1. With y*z, everything in degree >= 2 is killed; the
    # second N, whose elements outside M lie in degrees 2 and 3, keeps y*z
    M = polys(["x", "y"])
    for N, values in (
        (["x^2", "x*y", "y^2", "x*z", "y*z"], [0, 2, 0, 0]),
        (["x^2", "x*y", "y^2", "x*z", "y*z^2"], [0, 2, 1, 0]),
    ):
        P = submodule_quotient(M, polys(N))
        assert [hilbert_function(P, t) for t in range(4)] == values


def test_submodule_quotient_drops_positions_holding_elements_of_n():
    # (x, y)/(x, y^2) = k[x, y, z]/(x, y) shifted to degree 1, generated by y
    # alone: x sits at a position of M and is dropped with its entries
    P = submodule_quotient(polys(["x", "y"]), polys(["x", "y^2"]))
    assert P.generators.twists == (1,)
    assert all(sum(m) > 0 for r in P.relations for _, m in r.terms)
    assert [hilbert_function(P, t) for t in range(4)] == [0, 1, 1, 1]


def test_submodule_quotient_requires_containment():
    with pytest.raises(ValueError):
        submodule_quotient(polys(["x"]), polys(["y"]))


# --- one term-map arithmetic: polynomials and rank-one elements agree ------

from hypothesis import given, settings, strategies as st  # noqa: E402

from qcisyz.fields import QQ  # noqa: E402
from qcisyz.poly import Polynomial  # noqa: E402

monos = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


@st.composite
def field_polys(draw):
    """A field, three polynomials over it, a scalar and a monomial; the
    coefficients are small, so that sums cancel often."""
    field = draw(st.sampled_from([F, QQ]))

    def poly():
        d = draw(st.dictionaries(monos, st.integers(-3, 3), max_size=6))
        return Polynomial.from_terms(field, d.items())

    return field, poly(), poly(), poly(), field.coerce(draw(st.integers(-4, 4))), draw(monos)


@settings(max_examples=60, deadline=None)
@given(data=field_polys())
def test_poly_to_element_commutes_with_arithmetic(data):
    field, f, g, _, c, m = data
    e, h = poly_to_element(f), poly_to_element(g)
    assert poly_to_element(f + g) == e + h
    assert poly_to_element(f - g) == e - h
    assert poly_to_element(-f) == -e
    assert poly_to_element(f.scale(c)) == e.scale(c)
    assert poly_to_element(f.mono_shift(m, c)) == e.mono_shift(m, c)
    # no stored coefficient is zero
    for x in (e + h, e - h, e.scale(c), f * g):
        assert field.zero not in x.terms.values()


@settings(max_examples=60, deadline=None)
@given(data=field_polys())
def test_poly_mul_is_componentwise_product(data):
    field, f, g, p, _, _ = data
    amb = FreeGradedModule((0, 2))
    e = ModuleElement.from_components(amb, field, [f, g])
    assert e.poly_mul(p) == ModuleElement.from_components(amb, field, [f * p, g * p])
