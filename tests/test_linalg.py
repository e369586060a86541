"""`linalg`'s sparse echelon against a textbook dense elimination, and the
cofactor solve built on it."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qcisyz import linalg
from qcisyz.errors import InvariantError
from qcisyz.fields import QQ, PrimeField
from qcisyz.linalg import cofactors, make_echelon
from qcisyz.modules import poly_to_element
from qcisyz.parsing import parse_polynomial
from qcisyz.poly import add_terms

FIELDS = [PrimeField(7), PrimeField(32003), QQ]


BIG = Fraction(2**61 - 1, 3**20)


def _entries(field):
    """1, 2, p - 1 and p - 2 over GF(p), so that sums of them vanish mod p
    but not as integers; 1, 2, -1, -2 and 1/2 over Q, with +-(2^61 - 1)/3^20
    and its inverse, so that the integers of the fraction-free elimination
    grow."""
    if field.prime:
        p = field.prime
        return [1, 2, p - 1, p - 2]
    return [Fraction(1), Fraction(2), Fraction(-1), Fraction(-2), Fraction(1, 2), BIG, -BIG, 1 / BIG]


@st.composite
def _stream(draw):
    """A field, a width and sparse vectors over it, some of them sums of
    two earlier ones so that dependent rows come up at every width."""
    field = draw(st.sampled_from(FIELDS))
    width = draw(st.integers(1, 10))
    entry = st.sampled_from(_entries(field))
    vecs = []
    for _ in range(draw(st.integers(0, 14))):
        if len(vecs) >= 2 and draw(st.booleans()):
            a, b = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
            vec = dict(a)
            for j, c in b.items():
                vec[j] = field.add(vec.get(j, field.zero), c)
            vecs.append({j: c for j, c in vec.items() if c})
        else:
            cols = draw(st.sets(st.integers(0, width - 1), max_size=width))
            vecs.append({j: draw(entry) for j in sorted(cols)})
    return field, width, vecs


def _dense_reduce(field, width, kept, vec):
    """vec reduced by every row of kept ({pivot column: dense row with pivot
    1}) in increasing pivot column, one field operation per entry."""
    v = [field.zero] * width
    for j, c in vec.items():
        v[j] = c
    for col in sorted(kept):
        c = v[col]
        if c != field.zero:
            v = [field.sub(a, field.mul(c, b)) for a, b in zip(v, kept[col])]
    return v


@settings(max_examples=200, deadline=None)
@given(_stream())
def test_sparse_echelon_matches_dense_elimination(stream):
    """Each vector's reduction is the dense one, entry for entry, and is
    kept, scaled to pivot 1, when it is nonzero."""
    field, width, vecs = stream
    ech = make_echelon(field, width)
    kept = {}
    for vec in vecs:
        v = _dense_reduce(field, width, kept, vec)
        reduced = {j: a for j, a in enumerate(v) if a != field.zero}
        assert ech.reduce(vec) == reduced
        if reduced:
            inv = field.inv(reduced[min(reduced)])
            kept[min(reduced)] = [field.mul(a, inv) for a in v]
        assert ech.add(vec) == bool(reduced)
        assert ech.rank == len(kept)
    rows = ech.rows()
    assert [[row.get(j, field.zero) for j in range(width)] for row in rows] == [
        kept[col] for col in sorted(kept)
    ]
    for col, row in zip(sorted(kept), rows):
        assert all(c != field.zero for c in row.values())
        if field.prime:
            assert all(type(c) is int and 1 <= c < field.prime for c in row.values())
        else:
            assert type(row[col]) is Fraction and row[col] == 1
        assert ech.reduce(row) == {}
    if field.prime:
        for tail in ech.pivots.values():
            assert all(type(c) is int and 1 <= c < field.prime for _, c in tail)
    else:
        # over Q a pivot row is kept as the primitive integer vector with a
        # positive pivot
        for col, tail in ech.pivots.items():
            entries = [ech.lead[col], *(b for _, b in tail)]
            assert all(type(c) is int and c for c in entries)
            assert ech.lead[col] > 0 and gcd(*entries) == 1


class _Counted(Fraction):
    """A Fraction that counts the Fractions built through its class and the
    arithmetic done on its instances."""

    built = ops = 0

    def __new__(cls, *args, **kwargs):
        _Counted.built += 1
        return super().__new__(cls, *args, **kwargs)


def _counting(name):
    op = getattr(Fraction, name)

    def counted(self, *args):
        _Counted.ops += 1
        return op(self, *args)

    return counted


for _name in ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv", "neg"):
    setattr(_Counted, f"__{_name}__", _counting(f"__{_name}__"))


def test_the_eliminator_over_q_does_no_fraction_arithmetic(monkeypatch):
    """Over Q, add on integer-valued vectors builds no Fraction, and reduce
    builds one per entry of its result; neither does arithmetic on the
    Fractions it is given."""
    monkeypatch.setattr(linalg, "Fraction", _Counted)
    rng = random.Random(7)
    width = 14
    nonzero = [c for c in range(-9, 10) if c]
    ints = [{j: rng.choice(nonzero) for j in rng.sample(range(width), 7)} for _ in range(8)]
    total = Counter(ints[0])
    total.update(ints[1])
    ints.append(total)  # dependent on the first two
    integral = [{j: _Counted(c) for j, c in v.items() if c} for v in ints]
    rational = [
        {j: _Counted(rng.choice(nonzero), rng.randint(2, 9)) for j in rng.sample(range(width), 7)}
        for _ in range(6)
    ]
    ech = make_echelon(QQ, width)
    _Counted.built = _Counted.ops = 0
    for vec in integral:
        ech.add(vec)
    assert ech.rank == 8
    assert (_Counted.built, _Counted.ops) == (0, 0)
    for vec in rational:
        out = ech.reduce(vec)
        assert out and _Counted.built <= len(out) and _Counted.ops == 0
        _Counted.built = 0


def test_a_column_that_vanishes_only_mod_p_is_no_pivot():
    F = PrimeField(7)
    ech = make_echelon(F, 3)
    assert ech.add({0: 1, 1: 2})
    # 43 = 1 mod 7; the pivot row's tail adds 5 to column 1, which holds 7 = 0 mod 7
    assert ech.reduce({0: 1 + 6 * 7, 1: 2, 2: 1}) == {2: 1}
    assert ech.add({0: 6, 1: 5, 2: 3})
    assert ech.rows() == [{0: 1, 1: 2}, {2: 1}]


@pytest.mark.parametrize("field", FIELDS, ids=["GF7", "GF32003", "QQ"])
def test_cofactors_write_each_target_over_the_generators(field):
    """x^2*y - 2*y^3 and y*z^2 over x^2 - y^2 (degree 2) and y*z (degree 2)
    and y (degree 1): sum c_k * g_k gives back each target, and z^3, outside
    the ideal, is refused."""
    gens = [poly_to_element(parse_polynomial(t, field)) for t in ("x^2 - y^2", "y*z", "y")]
    targets = [poly_to_element(parse_polynomial(t, field)) for t in ("x^2*y - 2*y^3", "y*z^2")]
    for target, cof in zip(targets, cofactors(targets, gens)):
        assert cof.ambient.twists == (2, 2, 1) and cof.degree() == 3
        acc = {}
        for k, g in enumerate(gens):
            add_terms(field, acc, g.poly_mul(cof.component(k)).terms)
        assert acc == target.terms
    with pytest.raises(InvariantError, match="outside their span"):
        cofactors([poly_to_element(parse_polynomial("z^3", field))], gens)
