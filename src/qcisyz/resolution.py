"""Minimal graded free resolutions, Betti tables, and Hilbert series.

Resolutions are built bottom-up: a minimal generating set is extracted by
exact linear algebra, its syzygy generators are minimalized in turn, and so
on.  With membership-minimal generators at every level the differentials
carry no constant entries, so the result is minimal by construction; this
is asserted, and exactness of consecutive differentials is asserted too.
A presented module is resolved from its relations as given, so its
presentation must be minimal: a relation with a constant entry raises
`ResolutionError`.
"""

from __future__ import annotations

from collections import Counter

from .errors import InvariantError
from .linalg import minimal_generators
from .modules import FreeGradedModule, PresentedModule, poly_to_element
from .orders import hilbert_series_value, mono_deg
from .poly import Polynomial, add_terms

MAX_LENGTH = 3  # Hilbert's syzygy theorem in three variables


class ResolutionError(InvariantError):
    """A computed resolution is not a minimal complex (exit code 3 at the CLI)."""


class BettiTable:
    """Multiplicities of twists per homological position."""

    def __init__(self, entries=None):
        self.entries = Counter()
        if entries:
            for k, v in dict(entries).items():
                if v:
                    self.entries[k] = v

    @classmethod
    def from_twists(cls, twists_per_position):
        t = cls()
        for pos, twists in enumerate(twists_per_position):
            for a in twists:
                t.entries[(pos, a)] += 1
        return t

    def positions(self):
        if not self.entries:
            return []
        return list(range(max(p for p, _ in self.entries) + 1))

    def degrees_at(self, pos: int):
        """Sorted twist list (with multiplicity) at a homological position."""
        out = []
        for (p, d), c in self.entries.items():
            if p == pos:
                out.extend([d] * c)
        return sorted(out)

    def total_at(self, pos: int) -> int:
        return sum(c for (p, _), c in self.entries.items() if p == pos)

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def to_json(self):
        out = {}
        for (p, d), c in sorted(self.entries.items()):
            out.setdefault(str(p), {})[str(d)] = c
        return out

    def to_tsv(self) -> str:
        """Macaulay-style layout: column = position, row = degree - position."""
        if not self.entries:
            return "total:\t0\n"
        positions = self.positions()
        rows = range(
            min(d - p for p, d in self.entries),
            max(d - p for p, d in self.entries) + 1,
        )
        lines = []
        totals = [self.total_at(p) for p in positions]
        lines.append("total:\t" + "\t".join(str(t) for t in totals))
        for r in rows:
            cells = []
            for p in positions:
                c = self.entries.get((p, r + p), 0)
                cells.append(str(c) if c else ".")
            lines.append(f"{r}:\t" + "\t".join(cells))
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"BettiTable({dict(sorted(self.entries.items()))})"


class GradedResolution:
    """Chain F_0 <- F_1 <- ... with differentials given column-wise.

    differentials[k] lists the columns of F_{k+1} -> F_k as homogeneous
    elements of the free module F_k.
    """

    def __init__(self, modules, differentials):
        self.modules = list(modules)
        self.differentials = [list(d) for d in differentials]
        self._validate()

    def _validate(self):
        if len(self.modules) - 1 != len(self.differentials):
            raise ResolutionError("module/differential count mismatch")
        if len(self.modules) - 1 > MAX_LENGTH:
            raise ResolutionError("resolution longer than three steps")
        for k, cols in enumerate(self.differentials):
            if len(cols) != self.modules[k + 1].rank:
                raise ResolutionError("differential width mismatch")
            for j, col in enumerate(cols):
                if col.ambient != self.modules[k]:
                    raise ResolutionError("differential ambient mismatch")
                if not col.is_homogeneous():
                    raise ResolutionError("non-homogeneous differential entry")
                if not col.is_zero() and col.degree() != self.modules[k + 1].twists[j]:
                    raise ResolutionError("differential degree mismatch")
        self._assert_minimal()
        self._assert_exact_composition()

    def _assert_minimal(self):
        for k, cols in enumerate(self.differentials):
            for col in cols:
                for (pos, m), _ in col.terms.items():
                    if mono_deg(m) == 0:
                        raise ResolutionError(
                            f"constant entry in differential {k}: resolution not minimal"
                        )

    def _assert_exact_composition(self):
        for k in range(len(self.differentials) - 1):
            lower = self.differentials[k]
            for col in self.differentials[k + 1]:
                acc = {}
                for j, g in enumerate(lower):
                    add_terms(g.field, acc, g.poly_mul(col.component(j)).terms)
                if acc:
                    raise ResolutionError("consecutive differentials do not compose to zero")

    @property
    def length(self) -> int:
        return len(self.modules) - 1


def betti(res: GradedResolution) -> BettiTable:
    return BettiTable.from_twists([m.twists for m in res.modules])


def _resolve_from(gens):
    """Free modules and minimal generators of each step: a minimal subset of
    gens, then minimal syzygies of the step before, until there are none."""
    from .groebner import SubmoduleGB

    steps = [minimal_generators(gens)]
    while steps[-1]:
        syz = minimal_generators(SubmoduleGB(steps[-1], syzygies=True).syzygies)
        if not syz:
            break
        steps.append(syz)
    return [FreeGradedModule(tuple(g.degree() for g in step)) for step in steps], steps


def minimal_resolution(X) -> GradedResolution:
    """Minimal graded free resolution of a submodule or presented module.

    Accepts a list of homogeneous polynomials (ideal generators), a list of
    module elements (submodule generators), or a PresentedModule with a
    minimal presentation: one whose relations have no constant entry.
    """
    if isinstance(X, PresentedModule):
        if not X.relations:
            return GradedResolution([X.generators], [])
        # the relations' minimal generators are the first differential
        modules, steps = _resolve_from(X.relations)
        return GradedResolution([X.generators] + modules, steps)

    gens = list(X)
    if not gens:
        raise ValueError("empty input")
    if isinstance(gens[0], Polynomial):
        amb = FreeGradedModule((0,))
        gens = [poly_to_element(g, amb) for g in gens]
    modules, steps = _resolve_from(gens)
    return GradedResolution(modules, steps[1:])


def hilbert_series(table: BettiTable):
    """Numerator of the Hilbert series over (1-t)^3 of the module whose
    Betti table this is (the alternating sum of its twists), as
    {degree: coefficient}."""
    num = Counter()
    for (pos, a), c in table.entries.items():
        num[a] += -c if pos % 2 else c
    return {k: v for k, v in sorted(num.items()) if v}


def resolution_hilbert_function(table: BettiTable, t: int) -> int:
    return hilbert_series_value(hilbert_series(table), t)


# --- predicted resolution of the saturated ideal (mapping cone) -----------


def predicted_sigma_tables(exponents, b, d: int):
    """Betti tables of the saturated ideal reachable from the mapping cone.

    The non-minimal predicted shape has generators at 2d-2-b_j and d-1
    (three copies), relations at 2d-2-d_i.  A degree-(d-1) generator may
    cancel only against a relation coming from an exponent d_i = d-1; no
    generator coming from a b_j may cancel.  Returns the list of tables for
    every admissible number of cancellations (0 included).
    """
    exponents = sorted(exponents)
    b = sorted(b)
    if sum(exponents) - sum(b) != d - 1:
        raise ValueError("inconsistent exponent data: the d_i less the b_j do not sum to d-1")
    gens = Counter({d - 1: 3})
    for bj in b:
        gens[2 * d - 2 - bj] += 1
    rels = Counter(2 * d - 2 - di for di in exponents)
    cancellable = min(3, sum(1 for di in exponents if di == d - 1))
    tables = []
    for c in range(cancellable + 1):
        g = Counter(gens)
        r = Counter(rels)
        if c:
            g[d - 1] -= c
            r[d - 1] -= c
        entries = {}
        for deg, cnt in g.items():
            if cnt:
                entries[(0, deg)] = cnt
        for deg, cnt in r.items():
            if cnt:
                entries[(1, deg)] = cnt
        tables.append(BettiTable(entries))
    return tables


def sigma_table_reachable(computed: BettiTable, exponents, b, d: int) -> bool:
    """Prop-4.1 check: the computed table arises by admissible cancellation."""
    return any(computed == t for t in predicted_sigma_tables(exponents, b, d))
