"""`linalg`'s sparse echelon against a textbook dense elimination."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qcisyz.fields import QQ, PrimeField
from qcisyz.linalg import make_echelon

FIELDS = [PrimeField(7), PrimeField(32003), QQ]


def _entries(field):
    """1, 2, p - 1 and p - 2 over GF(p), so that sums of them vanish mod p
    but not as integers; 1, 2, -1, -2 and 1/2 over Q."""
    if field.prime:
        p = field.prime
        return [1, 2, p - 1, p - 2]
    return [Fraction(1), Fraction(2), Fraction(-1), Fraction(-2), Fraction(1, 2)]


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


def _dense_echelon(field, width, vecs):
    """Each vector reduced by every kept row in increasing pivot column, one
    field operation per entry; a nonzero result is scaled to pivot 1 and
    kept. Returns the kept rows by pivot column, as dense lists."""
    kept = {}
    for vec in vecs:
        v = [field.zero] * width
        for j, c in vec.items():
            v[j] = c
        for col in sorted(kept):
            c = v[col]
            if c != field.zero:
                v = [field.sub(a, field.mul(c, b)) for a, b in zip(v, kept[col])]
        nonzero = [j for j, a in enumerate(v) if a != field.zero]
        if nonzero:
            inv = field.inv(v[nonzero[0]])
            kept[nonzero[0]] = [field.mul(a, inv) for a in v]
    return [kept[col] for col in sorted(kept)]


@settings(max_examples=200, deadline=None)
@given(_stream())
def test_sparse_echelon_matches_dense_elimination(stream):
    field, width, vecs = stream
    ech = make_echelon(field, width)
    ranks = []
    for vec in vecs:
        before = ech.rank
        assert ech.add(vec) == (ech.rank == before + 1)
        ranks.append(ech.rank)
    expected = _dense_echelon(field, width, vecs)
    assert ech.rank == len(expected)
    rows = ech.rows()
    assert [[row.get(j, field.zero) for j in range(width)] for row in rows] == expected
    for row in rows:
        assert all(c != field.zero for c in row.values())
        if field.prime:
            assert all(type(c) is int and 1 <= c < field.prime for c in row.values())
        assert ech.reduce(row) == {}
    if field.prime:
        for tail in ech.pivots.values():
            assert all(type(c) is int and 1 <= c < field.prime for _, c in tail)
    # the rank after each add is the rank of the dense elimination's prefix
    assert ranks == [len(_dense_echelon(field, width, vecs[: i + 1])) for i in range(len(vecs))]


def test_a_column_that_vanishes_only_mod_p_is_no_pivot():
    F = PrimeField(7)
    ech = make_echelon(F, 3)
    assert ech.add({0: 1, 1: 2})
    # 43 = 1 mod 7; the pivot row's tail adds 5 to column 1, which holds 7 = 0 mod 7
    assert ech.reduce({0: 1 + 6 * 7, 1: 2, 2: 1}) == {2: 1}
    assert ech.add({0: 6, 1: 5, 2: 3})
    assert ech.rows() == [{0: 1, 1: 2}, {2: 1}]
