"""Exact linear algebra on graded pieces, by Gaussian elimination over the
exact field, never via lead terms.

`make_echelon` is the one eliminator. It selects minimal generators for the
resolutions, spans and ranks the pieces and Koszul differentials of Q in
`koszul`, finds the kernels of the tau_+ search, and runs the degree-wise
Hilbert evaluator (`hilbert_function`, `submodule_dim`). The analysis takes
its Hilbert values from series numerators instead; the evaluator is only the
oracle that `pipeline.verify_hilbert_consistency` holds them against, under
`analyze(..., deep_checks=True)`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import PrimeField
from .modules import PresentedModule
from .orders import grevlex_key, monomial_count


@lru_cache(maxsize=None)
def monomials_of_degree(t: int):
    """All exponent triples of total degree t, decreasing grevlex."""
    if t < 0:
        return ()
    out = [
        (i, j, t - i - j)
        for i in range(t, -1, -1)
        for j in range(t - i, -1, -1)
    ]
    out.sort(key=grevlex_key, reverse=True)
    return tuple(out)


def degree_basis(twists, t: int):
    """Monomial basis of the degree-t piece of the free module, as (pos, mono)."""
    basis = []
    for pos, a in enumerate(twists):
        for m in monomials_of_degree(t - a):
            basis.append((pos, m))
    return basis


def free_module_dim(twists, t: int) -> int:
    return sum(monomial_count(t - a) for a in twists)


class _Echelon:
    """Rows in echelon form, kept as {pivot column: normalized row}."""

    def add(self, vec) -> bool:
        """Reduce vec and keep it if it is independent of the rows kept."""
        return self.insert(self.reduce(vec))

    @property
    def rank(self) -> int:
        return len(self.pivots)


class _PrimeEchelon(_Echelon):
    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.pivots = {}  # col -> normalized numpy row

    def reduce(self, vec):
        """vec reduced by every pivot row, in increasing pivot column."""
        p = self.p
        v = np.asarray(vec, dtype=np.int64) % p
        for col in sorted(self.pivots):
            c = v[col]
            if c:
                v = (v - c * self.pivots[col]) % p
        return v

    def insert(self, v) -> bool:
        """Store a reduced vector as a pivot row; False if it is zero."""
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return False
        col = int(nz[0])
        inv = pow(int(v[col]), self.p - 2, self.p)
        self.pivots[col] = (v * inv) % self.p
        return True

    def rows(self):
        """The pivot rows, by pivot column, as lists of field elements."""
        return [self.pivots[col].tolist() for col in sorted(self.pivots)]


class _FractionEchelon(_Echelon):
    def __init__(self, width: int):
        self.width = width
        self.pivots = {}  # col -> normalized row (list of Fractions/ints)

    def reduce(self, vec):
        """vec reduced by every pivot row, in increasing pivot column."""
        v = list(vec)
        for col in sorted(self.pivots):
            c = v[col]
            if c:
                row = self.pivots[col]
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def insert(self, v) -> bool:
        """Store a reduced vector as a pivot row; False if it is zero."""
        for col, c in enumerate(v):
            if c:
                self.pivots[col] = [a / c for a in v]
                return True
        return False

    def rows(self):
        """The pivot rows, by pivot column."""
        return [self.pivots[col] for col in sorted(self.pivots)]


def make_echelon(field, width: int):
    """An echelon form of rows of the given width over the field: add(vec)
    is reduce(vec), then insert of the reduced vector when it is nonzero."""
    if isinstance(field, PrimeField):
        return _PrimeEchelon(field.prime, width)
    return _FractionEchelon(width)


def element_vector(terms: dict, index: dict):
    """Coefficient vector of a term map in the basis given by index."""
    vec = [0] * len(index)
    for t, c in terms.items():
        vec[index[t]] = c
    return vec


def _span(gens, twists, t: int, field):
    """Echelon of every monomial multiple in degree t of the generators, and
    the index of the monomial basis of the degree-t piece of the free
    module with these twists."""
    index = {b: i for i, b in enumerate(degree_basis(twists, t))}
    ech = make_echelon(field, len(index))
    for g in gens:
        d = g.degree()
        if d < 0 or d > t:
            continue
        for m in monomials_of_degree(t - d):
            ech.add(element_vector(g.mono_shift(m, field.one).terms, index))
    return ech, index


def hilbert_function(P: PresentedModule, t: int) -> int:
    """dim_k of the degree-t piece of the presented module.

    Computed as dim of the free part minus the rank of the span of all
    monomial multiples of the relations in degree t.
    """
    twists = P.generators.twists
    if not P.relations:
        return free_module_dim(twists, t)
    ech, index = _span(P.relations, twists, t, P.relations[0].field)
    return len(index) - ech.rank


def submodule_dim(gens, twists, t: int) -> int:
    """dim_k of the degree-t piece of the submodule generated by gens."""
    if not gens:
        return 0
    return _span(gens, twists, t, gens[0].field)[0].rank


def minimal_generators(gens):
    """A minimal generating subset of a homogeneous generating set.

    Graded Nakayama by exact linear algebra: processing degrees in
    increasing order, a generator is kept iff it is independent modulo the
    degree-t piece of the submodule generated by lower-degree generators
    and the previously kept same-degree ones.  Deterministic: input order
    breaks ties within a degree.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    field = gens[0].field
    twists = gens[0].ambient.twists
    order = sorted(range(len(gens)), key=lambda i: (gens[i].degree(), i))
    kept = []
    i = 0
    while i < len(order):
        t = gens[order[i]].degree()
        batch = []
        while i < len(order) and gens[order[i]].degree() == t:
            batch.append(gens[order[i]])
            i += 1
        ech, index = _span(kept, twists, t, field)
        for g in batch:
            if ech.add(element_vector(g.terms, index)):
                kept.append(g)
    return kept
