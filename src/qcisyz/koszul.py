"""Betti numbers of a finite-length module Q = I/J by Koszul homology.

For homogeneous ideals J in I of S = k[x, y, z] with I/J of finite length,

    beta_{i,j}(Q) = dim_k Tor_i(Q, k)_j = dim_k H_i(K(x, y, z) (x) Q)_j

(Eisenbud, *The Geometry of Syzygies*, GTM 229, ch. 2), so Q's Betti table
needs neither a presentation nor a resolution. Q is a submodule of S/J, and
J's standard monomials of degree t are a basis of (S/J)_t: each piece Q_t is
a row-reduced subspace of (S/J)_t, and multiplication by x, y, z on S/J is
read off a table of normal forms (`_QuotientRing`). The Koszul
differential from Lambda^i (x) Q_t is a block matrix of those maps; with
r_i(t) its rank and q_t = dim Q_t,

    beta_{i, t+i} = binom(3, i) * q_t - r_i(t) - r_{i+1}(t - 1).

Every rank goes through `linalg`'s echelon, looked up as
`linalg.make_echelon` at each call so that a wrapper on it (the traced
benchmark's `linalg.echelon_rows` count) sees these rows too.
"""

from __future__ import annotations

from itertools import combinations

from . import linalg
from .errors import InvariantError
from .linalg import element_vector, monomials_of_degree
from .orders import grevlex_key, hilbert_series_value, mono_deg, mono_div, mono_mul
from .poly import add_terms
from .resolution import BettiTable

# the faces e_A, |A| = i, of the exterior algebra on x, y, z, per i
_FACES = [list(combinations(range(3), i)) for i in range(4)]
_VARS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


class _QuotientRing:
    """S/J on J's standard monomials, one degree at a time.

    nf[t] maps monomials u of degree t to their normal forms modulo J, as
    term maps on the standard monomials standard[t] (in decreasing grevlex
    order). It is built FGLM-style (Faugere, Gianni, Lazard and Mora) from
    J's reduced grevlex basis, with no reduction: nf[t] holds the border,
    every u = x_k * w with w standard of degree t - 1, taken in increasing
    grevlex order. NF(u) is u when u is standard, minus the tail of the
    monic basis element that u leads, and otherwise x_k * NF(u / x_k) for a
    k where u / x_k is not standard. Then u / x_k is in the border of
    degree t - 1, and the product is the sum of NF(x_k * w) over the terms
    w of NF(u / x_k): border monomials smaller than u, so already known.
    """

    def __init__(self, basis, field):
        self.field = field
        self.tails = {}
        for g in basis:
            lead = max(g.terms, key=grevlex_key)
            tail = {m: c for m, c in g.terms.items() if m != lead}
            self.tails[lead] = add_terms(field, {}, tail, field.neg(field.inv(g.terms[lead])))
        self.nf = [{(0, 0, 0): {(0, 0, 0): field.one}}]
        self.standard = [[(0, 0, 0)]]

    def times(self, b, k, t):
        """x_k * b for b a term map on the standard monomials of degree t."""
        acc = {}
        table, (v0, v1, v2) = self.nf[t + 1], _VARS[k]
        for w, c in b.items():
            add_terms(self.field, acc, table[(w[0] + v0, w[1] + v1, w[2] + v2)], c)
        return acc

    def build(self, top: int):
        """Extend nf and standard to every degree up to top."""
        while len(self.nf) <= top:
            t = len(self.nf)
            below, below_standard = self.nf[-1], set(self.standard[-1])
            border = {mono_mul(w, x) for w in below_standard for x in _VARS}
            table = {}
            self.nf.append(table)
            for u in sorted(border, key=grevlex_key):
                if u in self.tails:
                    table[u] = self.tails[u]
                    continue
                for k in range(3):
                    if u[k] and (v := mono_div(u, _VARS[k])) not in below_standard:
                        table[u] = self.times(below[v], k, t - 1)
                        break
                else:
                    table[u] = {u: self.field.one}
            self.standard.append(
                [u for u in monomials_of_degree(t) if u in table and u in table[u]]
            )

    def normal_form(self, g):
        """NF(g) of a homogeneous polynomial g of a degree already built."""
        acc = {}
        for m, c in g.terms.items():
            add_terms(self.field, acc, self._monomial_nf(m), c)
        return acc

    def _monomial_nf(self, m):
        """NF(m) = x_k * NF(m / x_k) for any k, when m is not in the border."""
        table = self.nf[mono_deg(m)]
        if m not in table:
            k = next(k for k in range(3) if m[k])
            table[m] = self.times(self._monomial_nf(mono_div(m, _VARS[k])), k, mono_deg(m) - 1)
        return table[m]


def quotient_betti(basis, gens, numerator) -> BettiTable:
    """The Betti table of Q = I/J by Koszul homology over S/J.

    basis: J's reduced grevlex basis (polynomials). gens: polynomials that
    generate I together with J. numerator: Q's Hilbert series numerator
    over (1-t)^3, J's staircase numerator less I's. Q_t is the row-reduced
    span in (S/J)_t of the normal forms of the degree-t gens and of
    x_k * Q_{t-1}; InvariantError is raised at a degree where its
    dimension is not the one the numerator gives.
    """
    field = basis[0].field
    ring = _QuotientRing(basis, field)
    # past the numerator's degree the Hilbert function of Q is its Hilbert
    # polynomial, zero for a module of finite length
    top = max([*numerator, *(g.degree() for g in gens)], default=0) + 1
    q_basis = []  # per degree t, a basis of Q_t as term maps on standard[t]
    images = []  # images[t][k][p]: x_k times the p-th basis element of Q_t
    rank = {}  # (i, t) -> rank of the Koszul differential on Lambda^i (x) Q_t
    for t in range(top + 1):
        below = [v for per_k in images[t - 1] for v in per_k] if t else []
        degree_gens = [g for g in gens if g.degree() == t]
        rows = []
        if below or degree_gens:
            ring.build(t)
            index = {u: col for col, u in enumerate(ring.standard[t])}
            ech = linalg.make_echelon(field, len(index))
            # x_k * Q_{t-1}, the image of the first differential, then the gens
            for v in below:
                ech.add(element_vector(v, index))
            rank[(1, t - 1)] = ech.rank
            for g in degree_gens:
                ech.add(element_vector(ring.normal_form(g), index))
            standard = ring.standard[t]
            rows = [{standard[col]: c for col, c in row.items()} for row in ech.rows()]
        q_t = hilbert_series_value(numerator, t)
        if len(rows) != q_t:
            raise InvariantError(
                f"I_sat/J has dimension {len(rows)} in degree {t}, "
                f"where the staircases of J and I_sat give {q_t}"
            )
        q_basis.append(rows)
        if rows:
            ring.build(t + 1)
        images.append([[ring.times(b, k, t) for b in rows] for k in range(3)])
    for i in (2, 3):
        for t, rows in enumerate(q_basis):
            if rows:
                rank[(i, t)] = _koszul_rank(field, i, images[t], ring.standard[t + 1])
    entries = {}
    for i in range(4):
        for t in range(top + 2):
            q_t = len(q_basis[t]) if t <= top else 0
            entries[(i, t + i)] = (
                len(_FACES[i]) * q_t - rank.get((i, t), 0) - rank.get((i + 1, t - 1), 0)
            )
    return BettiTable(entries)


def _koszul_rank(field, i, images, standard):
    """Rank of the Koszul differential Lambda^i (x) Q_t -> Lambda^{i-1} (x) Q_{t+1},
    e_A (x) b |-> sum_r (-1)^r e_{A - a_r} (x) x_{a_r} b (A = a_0 < a_1 < ...),
    with images[k][p] = x_k times the p-th basis element of Q_t and the
    target's Q_{t+1} in coordinates of (S/J)_{t+1} (standard: its basis).
    The terms of one row lie in distinct blocks e_{A - a_r}."""
    block = {face: pos for pos, face in enumerate(_FACES[i - 1])}
    index = {u: col for col, u in enumerate(standard)}
    n = len(standard)
    ech = linalg.make_echelon(field, n * len(block))
    for face in _FACES[i]:
        for p in range(len(images[0])):
            row = {}
            for r, a in enumerate(face):
                base = n * block[face[:r] + face[r + 1 :]]
                for u, c in images[a][p].items():
                    row[base + index[u]] = field.neg(c) if r % 2 else c
            ech.add(row)
    return ech.rank
