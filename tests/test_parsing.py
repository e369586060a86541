import pytest
from hypothesis import given, settings, strategies as st

from qcisyz.fields import QQ, PrimeField
from qcisyz.parsing import ParseError, parse_polynomial
from qcisyz.poly import Polynomial, format_polynomial

F = PrimeField(32003)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("x", "x"),
        ("x + y + z", "x + y + z"),
        ("(x+y)^2", "x^2 + 2*x*y + y^2"),
        ("-x^2 - -y^2", "-x^2 + y^2"),
        ("2*x*y - y*x", "x*y"),
        ("x^2*y/2", "1/2*x^2*y"),
        ("0", "0"),
        ("(x + y)*(x - y)", "x^2 - y^2"),
        ("x^0", "1"),
        ("(2*x)^3", "8*x^3"),
        ("0*x", "0"),
        ("x*0", "0"),
        ("(x+y)^0", "1"),
        ("((x))^2*y", "x^2*y"),
        ("3*x/3", "x"),
    ],
)
def test_parse_examples(text, expected):
    assert format_polynomial(parse_polynomial(text, QQ)) == expected


monos = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))


@given(
    d=st.dictionaries(monos, st.integers(1, 31000), min_size=1, max_size=8)
)
def test_parse_format_round_trip(d):
    f = Polynomial(F, {m: F.coerce(c) for m, c in d.items()})
    assert parse_polynomial(format_polynomial(f), F) == f


# each malformed text with the position its ParseError reports
_ERROR_POSITIONS = {
    "": 0,
    "x +": 3,
    "x^": 1,
    "w + y": 0,
    "x^-2": 1,
    "(x + y": 6,
    "x y": 2,
    "3.5*x": 1,
    "x/(y)": 1,
    "x//2": 1,
}


@pytest.mark.parametrize("bad", list(_ERROR_POSITIONS))
def test_parse_errors(bad):
    with pytest.raises(ParseError) as err:
        parse_polynomial(bad, QQ)
    assert err.value.position == _ERROR_POSITIONS[bad]


def test_parse_error_carries_position():
    try:
        parse_polynomial("x + w", QQ)
    except ParseError as e:
        assert e.position == 4
    else:
        pytest.fail("expected ParseError")


def test_division_only_by_integer_literal():
    f = parse_polynomial("x/3", QQ)
    assert format_polynomial(f) == "1/3*x"
    with pytest.raises(ParseError):
        parse_polynomial("x/0", QQ)


def test_prime_field_coefficients_normalized():
    f = parse_polynomial("32004*x - y", F)
    assert format_polynomial(f) == "x + 32002*y"
    # a coefficient that vanishes mod p leaves no term
    assert parse_polynomial("32003*x^2 + y", F).terms == {(0, 1, 0): 1}


@st.composite
def _expressions(draw, depth=2):
    """(text, polynomial): a sum of products of powers of variables,
    integers and parenthesized sums, with the polynomial that Polynomial
    + - * compute for it."""
    field = draw(st.sampled_from([F, QQ]))

    def atom(d):
        kind = draw(st.sampled_from(["var", "int", "paren"] if d else ["var", "int"]))
        if kind == "var":
            i = draw(st.integers(0, 2))
            return "xyz"[i], Polynomial.variable(field, i)
        if kind == "int":
            n = draw(st.sampled_from([0, 1, 2, 5, 32003, 32005]))
            return str(n), Polynomial.constant(field, n)
        text, p = total(d - 1)
        return f"({text})", p

    def power(d):
        text, p = atom(d)
        if not draw(st.booleans()):
            return text, p
        e = draw(st.integers(0, 3))
        acc = Polynomial.constant(field, 1)
        for _ in range(e):
            acc = acc * p
        return f"{text}^{e}", acc

    def product(d):
        text, p = power(d)
        for _ in range(draw(st.integers(0, 2))):
            t2, q = power(d)
            text, p = f"{text}*{t2}", p * q
        return text, p

    def total(d):
        text, p = product(d)
        for _ in range(draw(st.integers(0, 3))):
            t2, q = product(d)
            if draw(st.booleans()):
                text, p = f"{text} + {t2}", p + q
            else:
                text, p = f"{text} - {t2}", p - q
        return text, p

    return total(depth)


@settings(max_examples=100, deadline=None)
@given(case=_expressions())
def test_parse_matches_polynomial_arithmetic(case):
    text, expected = case
    assert parse_polynomial(text, expected.field) == expected
