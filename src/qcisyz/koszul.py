"""Betti numbers of a finite-length module Q = I/J by Koszul homology: the
deep-check oracle for Q's Betti table, which `analyze` reads off the long
exact Tor sequence of 0 -> J -> I -> Q -> 0 (`pipeline._h1_report`) and,
under `deep_checks`, holds against `quotient_betti` (`pipeline._koszul_oracle`).

For homogeneous ideals J in I of S = k[x, y, z] with I/J of finite length,

    beta_{i,j}(Q) = dim_k Tor_i(Q, k)_j = dim_k H_i(K(x, y, z) (x) Q)_j

(Eisenbud, *The Geometry of Syzygies*, GTM 229, ch. 2), so Q's Betti table
needs neither a presentation nor a resolution. Q is a submodule of S/J, and
an element of S/J is its normal form modulo J's Groebner basis, a
combination of J's standard monomials: each piece Q_t is a row-reduced
subspace of those normal forms, and x_k times an element of Q_t is the
normal form of the product (`SubmoduleGB.normal_form`, Buchberger's own
reduction kernel). The Koszul differential from Lambda^i (x) Q_t is a block
matrix of those maps; with r_i(t) its rank and q_t = dim Q_t,

    beta_{i, t+i} = binom(3, i) * q_t - r_i(t) - r_{i+1}(t - 1).

Every rank goes through `linalg`'s echelon, looked up as
`linalg.make_echelon` at each call so that a wrapper on it (the traced
benchmark's `linalg.echelon_rows` count) sees these rows too. Its columns
are all the monomials of a degree: a normal form holds standard monomials
only, and the rows are sparse, so the other columns cost nothing.
"""

from __future__ import annotations

from itertools import combinations

from . import linalg
from .errors import InvariantError
from .linalg import element_vector, monomials_of_degree
from .orders import hilbert_series_value
from .poly import Polynomial
from .resolution import BettiTable

# the faces e_A, |A| = i, of the exterior algebra on x, y, z, per i
_FACES = [list(combinations(range(3), i)) for i in range(4)]
_VARS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def quotient_betti(j_gb, gens, numerator) -> BettiTable:
    """The Betti table of Q = I/J by Koszul homology over S/J.

    j_gb: J's `SubmoduleGB`. gens: polynomials that generate I together
    with J. numerator: Q's Hilbert series numerator over (1-t)^3, J's
    staircase numerator less I's. Q_t is the row-reduced span of the normal
    forms modulo J of the degree-t gens and of x_k * Q_{t-1};
    InvariantError is raised at a degree where its dimension is not the one
    the numerator gives.
    """
    field = j_gb.field
    # past the numerator's degree the Hilbert function of Q is its Hilbert
    # polynomial, zero for a module of finite length
    top = max([*numerator, *(g.degree() for g in gens)], default=0) + 1
    q_basis = []  # per degree t, a basis of Q_t as normal forms
    images = []  # images[t][k][p]: x_k times the p-th basis element of Q_t
    rank = {}  # (i, t) -> rank of the Koszul differential on Lambda^i (x) Q_t
    for t in range(top + 1):
        below = [v for per_k in images[t - 1] for v in per_k] if t else []
        degree_gens = [g for g in gens if g.degree() == t]
        rows = []
        if below or degree_gens:
            monos = monomials_of_degree(t)
            index = {u: col for col, u in enumerate(monos)}
            ech = linalg.make_echelon(field, len(index))
            # x_k * Q_{t-1}, the image of the first differential, then the gens
            for v in below:
                ech.add(element_vector(v.terms, index))
            rank[(1, t - 1)] = ech.rank
            for g in degree_gens:
                ech.add(element_vector(j_gb.normal_form(g).terms, index))
            rows = [
                Polynomial(field, {monos[col]: c for col, c in row.items()}) for row in ech.rows()
            ]
        q_t = hilbert_series_value(numerator, t)
        if len(rows) != q_t:
            raise InvariantError(
                f"I_sat/J has dimension {len(rows)} in degree {t}, "
                f"where the staircases of J and I_sat give {q_t}"
            )
        q_basis.append(rows)
        images.append(
            [[j_gb.normal_form(b.mono_shift(x, field.one)) for b in rows] for x in _VARS]
        )
    for i in (2, 3):
        for t, rows in enumerate(q_basis):
            if rows:
                rank[(i, t)] = _koszul_rank(field, i, images[t], t + 1)
    entries = {}
    for i in range(4):
        for t in range(top + 2):
            q_t = len(q_basis[t]) if t <= top else 0
            entries[(i, t + i)] = (
                len(_FACES[i]) * q_t - rank.get((i, t), 0) - rank.get((i + 1, t - 1), 0)
            )
    return BettiTable(entries)


def _koszul_rank(field, i, images, t):
    """Rank of the Koszul differential Lambda^i (x) Q_{t-1} -> Lambda^{i-1} (x) Q_t,
    e_A (x) b |-> sum_r (-1)^r e_{A - a_r} (x) x_{a_r} b (A = a_0 < a_1 < ...),
    with images[k][p] = x_k times the p-th basis element of Q_{t-1}, a
    normal form of degree t. The terms of one row lie in distinct blocks
    e_{A - a_r}."""
    block = {face: pos for pos, face in enumerate(_FACES[i - 1])}
    index = {u: col for col, u in enumerate(monomials_of_degree(t))}
    n = len(index)
    ech = linalg.make_echelon(field, n * len(block))
    for face in _FACES[i]:
        for p in range(len(images[0])):
            row = {}
            for r, a in enumerate(face):
                base = n * block[face[:r] + face[r + 1 :]]
                for u, c in images[a][p].terms.items():
                    row[base + index[u]] = field.neg(c) if r % 2 else c
            ech.add(row)
    return ech.rank
