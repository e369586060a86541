"""Monomial and module-term orders.

Monomials are exponent triples ``(ex, ey, ez)``, ordered by grevlex, the
one monomial order of the package.  Every order is exposed as a *key
function*: larger key means larger monomial, so ``max(terms,
key=...)`` picks the lead term and ``sorted(..., reverse=True)`` lists terms
in decreasing order.

It also holds the count of monomials per degree and the two readings of a
Hilbert series numerator over (1-t)^3 that every Hilbert value of the
analysis goes through: its value at one degree, and its Hilbert polynomial.
"""

from __future__ import annotations

Monomial = tuple  # (ex, ey, ez)


def mono_deg(m) -> int:
    return m[0] + m[1] + m[2]


def mono_mul(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def mono_divides(a, b) -> bool:
    """a | b componentwise."""
    return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]


def mono_div(a, b):
    """a / b; caller guarantees divisibility."""
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def mono_lcm(a, b):
    return (max(a[0], b[0]), max(a[1], b[1]), max(a[2], b[2]))


def monomial_count(t: int) -> int:
    """Number of monomials of degree t in three variables."""
    return (t + 1) * (t + 2) // 2 if t >= 0 else 0


def hilbert_series_value(num: dict, t: int) -> int:
    """Degree-t coefficient of num(t)/(1-t)^3, num a {degree: coefficient} map."""
    return sum(c * monomial_count(t - a) for a, c in num.items())


def hilbert_polynomial(num: dict) -> tuple:
    """(e0, e1, e2) = (N(1), -N'(1), N''(1)/2) for the series N(t)/(1-t)^3,
    N given by num, a {degree: coefficient} map (negative degrees allowed).
    From degree max(num) - 2 on, the series' coefficient is the Hilbert
    polynomial e0 * binom(t+2, 2) + e1 * (t+1) + e2 (Bruns and Herzog,
    Cohen-Macaulay Rings, 4.1). For S/I with V(I) finite, e0 = e1 = 0 and
    e2 = deg V(I)."""
    return (
        sum(num.values()),
        -sum(a * c for a, c in num.items()),
        sum(a * (a - 1) * c for a, c in num.items()) // 2,
    )


def grevlex_key(m):
    return (m[0] + m[1] + m[2], -m[2], -m[1])


def top_key(t):
    """Term-over-position key on (pos, mono): grevlex on the monomial, lower
    position breaks ties.

    Module keys are flat tuples of ints, so a Groebner run can pack each
    into one integer (see `groebner.TermKeys`). The reduction kernel relies
    on their layout: each key is affine in the monomial, with the same
    linear part at every position, so the key of a shifted term is the
    key of the term plus an amount that depends on the shift alone; and its
    last four components are (deg, -z, -y, -pos), from which the term is
    decoded. `block_elim_key` keeps both by putting its block flag first.
    """
    pos, m = t
    return (*grevlex_key(m), -pos)


def block_elim_key(split: int):
    """Block order: any term in positions < split beats any term beyond.

    Within each block, term-over-position.  Used for syzygy computations,
    where the first block holds the ambient module and the second the
    generator bookkeeping coordinates.
    """

    def key(t):
        pos, m = t
        return (pos < split, *grevlex_key(m), -pos)

    return key
