"""Exact linear algebra on graded pieces, by Gaussian elimination over the
exact field, never via lead terms.

`make_echelon` is the one eliminator. It selects minimal generators for the
resolutions, writes J's generators over Sigma's and ranks the images of J's
syzygies for Q's Tor sequence (`cofactors`, `rank_modulo`; `cofactors` also
writes N over M in `groebner.submodule_quotient`), spans and ranks
the pieces and Koszul differentials of Q in `koszul`, finds the kernels of
the tau_+ search, and runs the degree-wise Hilbert evaluator
(`hilbert_function`, `submodule_dim`). The analysis takes its Hilbert values
from series numerators instead; the evaluator is only the oracle that
`pipeline.verify_hilbert_consistency` holds them against, under
`analyze(..., deep_checks=True)`.

Over every field the rows are kept sparse, so a reduction step touches only
a pivot row's nonzeros. A pivot row is stored as its tail, a list of
(column, -value) right of its pivot, as `groebner._reducer` stores a monic
element over GF(p). Over GF(p) a vector being reduced holds plain ints, each
taken mod p only when its column is reached (the lazy update of
`groebner._reduce`); over Q the same code runs on Fractions.
"""

from __future__ import annotations

import bisect
from functools import lru_cache

from .errors import InvariantError
from .modules import FreeGradedModule, ModuleElement, PresentedModule
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
    """Rows in echelon form over a field, kept sparse.

    A pivot row is normalized (its pivot is 1) and stored as its tail: a
    list of (column, -value) of its other nonzeros, all right of the pivot.
    Vectors in and out are {column: value} of their nonzero entries.
    """

    def __init__(self, field):
        self.field = field
        self.pivots = {}  # pivot column -> tail
        self.cols = []  # the pivot columns, increasing

    def add(self, vec) -> bool:
        """Reduce vec and keep it if it is independent of the rows kept."""
        return self.insert(self.reduce(vec))

    @property
    def rank(self) -> int:
        return len(self.cols)

    def reduce(self, vec):
        """vec reduced by every pivot row, in increasing pivot column. Over
        GF(p) entries are plain ints while vec is reduced, each taken mod p
        when its column is reached; the result is reduced mod p once."""
        p = self.field.prime
        v = dict(vec)
        pop, get = v.pop, v.get
        for col in self.cols:
            c = pop(col, 0)
            if p:
                c %= p
            if c:
                for j, b in self.pivots[col]:
                    v[j] = get(j, 0) + c * b
        if p:
            v = {j: a % p for j, a in v.items()}
        return {j: a for j, a in v.items() if a}

    def insert(self, v) -> bool:
        """Store a reduced vector as a pivot row; False if it is zero."""
        if not v:
            return False
        field = self.field
        col = min(v)
        scale = field.neg(field.inv(v[col]))
        self.pivots[col] = [(j, field.mul(a, scale)) for j, a in sorted(v.items()) if j != col]
        bisect.insort(self.cols, col)
        return True

    def rows(self):
        """The pivot rows, by pivot column, as {column: value} dicts."""
        field = self.field
        return [
            {col: field.one, **{j: field.neg(b) for j, b in self.pivots[col]}}
            for col in self.cols
        ]


def make_echelon(field, width: int):
    """An echelon form of rows over the field: add(vec) is reduce(vec), then
    insert of the reduced vector when it is nonzero. Nothing reads width;
    it is kept for wrappers that pass it on (the traced benchmark's)."""
    return _Echelon(field)


def element_vector(terms: dict, index: dict):
    """Coefficient vector of a term map in the basis given by index, as
    {column: value}."""
    return {index[t]: c for t, c in terms.items()}


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


def rank_modulo(vecs, gens, twists, t: int) -> int:
    """Rank of the degree-t elements vecs modulo the degree-t piece of the
    submodule that gens generate."""
    ech, index = _span(gens, twists, t, vecs[0].field)
    base = ech.rank
    for v in vecs:
        ech.add(element_vector(v.terms, index))
    return ech.rank - base


def cofactors(targets, gens):
    """Each target, a degree-t element of the submodule that gens generate,
    written as sum_k c_k * gens[k]: (c_k) as a degree-t element of the free
    module with the gens' degrees as twists. One elimination in degree t:
    each monomial multiple m * gens[k] is a row tagged with its own column
    (k, m) right of the degree-t basis, so reducing a target to zero there
    leaves minus its cofactors in the tag columns."""
    field = gens[0].field
    t = targets[0].degree()
    index = {b: i for i, b in enumerate(degree_basis(gens[0].ambient.twists, t))}
    n = len(index)
    tags = [(k, m) for k, g in enumerate(gens) for m in monomials_of_degree(t - g.degree())]
    ech = make_echelon(field, n + len(tags))
    for col, (k, m) in enumerate(tags, n):
        row = element_vector(gens[k].mono_shift(m, field.one).terms, index)
        row[col] = field.one
        ech.add(row)
    ambient = FreeGradedModule(tuple(g.degree() for g in gens))
    out = []
    for f in targets:
        rest = ech.reduce(element_vector(f.terms, index))
        if min(rest, default=n) < n:
            raise InvariantError("an element to write over generators lies outside their span")
        terms = {tags[col - n]: field.neg(c) for col, c in rest.items()}
        out.append(ModuleElement(ambient, field, terms))
    return out


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
