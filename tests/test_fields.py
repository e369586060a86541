import pytest
from hypothesis import given, strategies as st

from qcisyz.fields import QQ, FieldConfigError, PrimeField, make_field

F = PrimeField(32003)
SMALL = PrimeField(7)


def elements(field):
    if field is QQ:
        return st.fractions(min_value=-50, max_value=50, max_denominator=20)
    return st.integers(min_value=0, max_value=field.prime - 1)


@pytest.mark.parametrize("field", [QQ, F, SMALL], ids=["q", "fp", "fp7"])
class TestAxioms:
    def test_identities(self, field):
        a = field.coerce(5)
        assert field.add(a, field.zero) == a
        assert field.mul(a, field.one) == a

    def test_inverse(self, field):
        a = field.coerce(5)
        assert field.mul(a, field.inv(a)) == field.one
        with pytest.raises(ZeroDivisionError):
            field.inv(field.zero)


@given(a=elements(F), b=elements(F), c=elements(F))
def test_prime_field_ring_axioms(a, b, c):
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == F.zero


@given(a=elements(F))
def test_prime_field_inverses(a):
    if a != F.zero:
        assert F.mul(a, F.inv(a)) == F.one


@given(a=elements(QQ), b=elements(QQ))
def test_rationals_sub_div(a, b):
    assert QQ.sub(a, b) == QQ.add(a, QQ.neg(b))


def test_coerce_fraction_into_prime_field():
    from fractions import Fraction

    a = F.coerce(Fraction(1, 2))
    assert F.mul(a, F.coerce(2)) == F.one


def test_make_field():
    assert make_field("q") is QQ
    assert make_field("fp", 101).prime == 101
    assert make_field("fp").prime == 32003
    with pytest.raises(FieldConfigError):
        make_field("fp", 100)
    with pytest.raises(FieldConfigError):
        make_field("gf2")


def test_field_kind_tags():
    assert QQ.kind == "q" and QQ.characteristic == 0
    assert F.kind == "fp" and F.characteristic == 32003
