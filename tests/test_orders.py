from hypothesis import given, strategies as st

from qcisyz.orders import (
    block_elim_key,
    grevlex_key,
    hilbert_polynomial,
    hilbert_series_value,
    mono_deg,
    mono_mul,
    top_key,
)


def mono_divides(a, b) -> bool:
    """a | b componentwise."""
    return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]


def mono_lcm(a, b):
    return (max(a[0], b[0]), max(a[1], b[1]), max(a[2], b[2]))


monos = st.tuples(
    st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)
)


def test_grevlex_examples():
    x2, xy, y2, xz = (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)
    assert grevlex_key(x2) > grevlex_key(xy)
    assert grevlex_key(y2) > grevlex_key(xz)


@given(a=monos, b=monos)
def test_order_compatible_with_multiplication(a, b):
    for c in [(1, 0, 0), (0, 2, 1)]:
        if grevlex_key(a) > grevlex_key(b):
            assert grevlex_key(mono_mul(a, c)) > grevlex_key(mono_mul(b, c))


@given(a=monos, b=monos)
def test_total_order_and_degree_refinement(a, b):
    ka, kb = grevlex_key(a), grevlex_key(b)
    assert (ka == kb) == (a == b)
    if mono_deg(a) > mono_deg(b):
        assert ka > kb


@given(a=monos, b=monos)
def test_lcm_and_divisibility(a, b):
    l = mono_lcm(a, b)
    assert mono_divides(a, l) and mono_divides(b, l)
    if mono_divides(a, b):
        assert mono_mul(a, tuple(y - x for x, y in zip(a, b))) == b


def test_module_keys():
    m, n = (1, 0, 0), (0, 1, 0)
    blk = block_elim_key(1)
    # TOP: monomial first, lower position wins ties
    assert top_key((0, m)) > top_key((1, m)) > top_key((0, n))
    # block order: positions below the split dominate everything above
    assert blk((0, n)) > blk((1, m))


numerators = st.dictionaries(st.integers(-6, 11), st.integers(-20, 20).filter(bool), max_size=8)


@given(num=numerators)
def test_hilbert_polynomial_is_the_eventual_series(num):
    # e0 * binom(t+2, 2) + e1 * (t+1) + e2 is the series' coefficient at
    # every degree past the numerator's degree
    e0, e1, e2 = hilbert_polynomial(num)
    t0 = max(num, default=0) + 1
    for t in range(t0, t0 + 4):
        assert e0 * (t + 1) * (t + 2) // 2 + e1 * (t + 1) + e2 == hilbert_series_value(num, t)
