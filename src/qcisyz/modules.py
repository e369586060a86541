"""Graded free modules, their elements, and presented quotient modules.

A free graded module over S = k[x, y, z] is a twist vector (a_1, ..., a_r)
standing for S(-a_1) + ... + S(-a_r); a homogeneous element of degree t has
k-th component zero or homogeneous of degree t - a_k.  Elements are stored
as flat term maps {(position, monomial): coefficient} so the Groebner
machinery can treat ideals (rank one) and submodules uniformly; their
linear arithmetic is the polynomials' (`poly.TermMap`).
"""

from __future__ import annotations

from .orders import mono_deg
from .poly import Polynomial, TermMap, add_terms


class FreeGradedModule:
    __slots__ = ("twists",)

    def __init__(self, twists):
        self.twists = tuple(twists)

    @property
    def rank(self) -> int:
        return len(self.twists)

    def __eq__(self, other):
        return isinstance(other, FreeGradedModule) and other.twists == self.twists

    def __hash__(self):
        return hash(self.twists)

    def __repr__(self):
        return f"FreeGradedModule{self.twists}"


class ModuleElement(TermMap):
    __slots__ = ("ambient", "field", "terms")

    def __init__(self, ambient: FreeGradedModule, field, terms: dict):
        self.ambient = ambient
        self.field = field
        self.terms = terms

    def _like(self, terms):
        return ModuleElement(self.ambient, self.field, terms)

    @classmethod
    def from_components(cls, ambient, field, comps):
        terms = {}
        for pos, p in enumerate(comps):
            if p is None:
                continue
            for m, c in p.terms.items():
                terms[(pos, m)] = c
        return cls(ambient, field, terms)

    def component(self, pos: int) -> Polynomial:
        return Polynomial(
            self.field, {m: c for (p, m), c in self.terms.items() if p == pos}
        )

    def components(self):
        return [self.component(i) for i in range(self.ambient.rank)]

    def degree(self) -> int:
        """Degree of a homogeneous element, read off one term; -1 if zero."""
        for p, m in self.terms:
            return mono_deg(m) + self.ambient.twists[p]
        return -1

    def is_homogeneous(self) -> bool:
        tw = self.ambient.twists
        degs = {mono_deg(m) + tw[p] for p, m in self.terms}
        return len(degs) <= 1

    def mono_shift(self, m, c):
        """self * c * x^m."""
        mul = self.field.mul
        m0, m1, m2 = m
        return self._like(
            {(p, (t[0] + m0, t[1] + m1, t[2] + m2)): mul(v, c) for (p, t), v in self.terms.items()}
        )

    def poly_mul(self, p: Polynomial):
        acc = {}
        for m, c in p.terms.items():
            add_terms(self.field, acc, self.mono_shift(m, c).terms)
        return self._like(acc)

    def __eq__(self, other):
        return (
            isinstance(other, ModuleElement)
            and self.ambient == other.ambient
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ambient, frozenset(self.terms.items())))

    def __repr__(self):
        comps = ", ".join(str(c) for c in self.components())
        return f"ModuleElement({comps})"


def poly_to_element(p: Polynomial, ambient=None) -> ModuleElement:
    """View a polynomial as an element of the rank-one free module S(0)."""
    if ambient is None:
        ambient = FreeGradedModule((0,))
    return ModuleElement(ambient, p.field, {(0, m): c for m, c in p.terms.items()})


class PresentedModule:
    """A quotient of a free graded module by explicit homogeneous relations."""

    __slots__ = ("generators", "relations")

    def __init__(self, generators: FreeGradedModule, relations):
        self.generators = generators
        self.relations = list(relations)
        for r in self.relations:
            if r.ambient != generators:
                raise ValueError("relation ambient mismatch")
            if not r.is_homogeneous():
                raise ValueError("relations must be homogeneous")

    def __repr__(self):
        return f"PresentedModule(gens={self.generators.twists}, nrel={len(self.relations)})"


def drop_generators(generators: FreeGradedModule, relations, dropped) -> PresentedModule:
    """The module presented by `relations` on `generators` with the
    generators at the positions `dropped` set to zero, presented on the
    others (renumbered in order): each relation loses its entries at
    `dropped`, and a relation that becomes zero is left out."""
    keep = [p for p in range(generators.rank) if p not in dropped]
    new_pos = {p: k for k, p in enumerate(keep)}
    ambient = FreeGradedModule(tuple(generators.twists[p] for p in keep))
    out = []
    for r in relations:
        terms = {(new_pos[p], m): c for (p, m), c in r.terms.items() if p in new_pos}
        if terms:
            out.append(ModuleElement(ambient, r.field, terms))
    return PresentedModule(ambient, out)
