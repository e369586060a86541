"""Buchberger's algorithm for ideals and submodules of free graded modules.

Everything is computed on module elements; an ideal is the rank-one case.
Syzygies, membership certificates and Groebner bases come out of a single
run on the block module F + S^r with generators g_i + e_i, under an order
in which every F-term beats every bookkeeping term.

Saturation at the irrelevant ideal is a single Bayer-Stillman pass: after a
linear change of coordinates that moves a line missing every associated
point to z = 0, the grevlex basis divided by its powers of z is a basis of
the saturation (see `saturate`).
"""

from __future__ import annotations

import heapq
from collections import Counter
from functools import cached_property, lru_cache

from .errors import InputError
from .modules import FreeGradedModule, ModuleElement, drop_generators, poly_to_element
from .orders import (
    block_elim_key,
    hilbert_series_value,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    top_key,
)
from .poly import Polynomial, add_terms


def _as_elements(gens):
    """Normalize a generating set (polynomials or elements) to elements."""
    if not gens:
        return [], FreeGradedModule((0,))
    if isinstance(gens[0], Polynomial):
        ambient = FreeGradedModule((0,))
        return [poly_to_element(g, ambient) for g in gens], ambient
    return list(gens), gens[0].ambient


_HALF = 1 << 31


class TermKeys(dict):
    """Order keys of (pos, mono) terms, each computed once per Groebner run.

    keys[t] packs keyfn(t), a flat tuple of ints, into one integer of 32 bits
    per component, so a larger integer is a larger term; keys.term_of maps
    the integer back to its term. All keys of one keyfn have the same length,
    which makes integer order the lexicographic order of the tuples.
    """

    __slots__ = ("keyfn", "term_of")

    def __init__(self, keyfn):
        super().__init__()
        self.keyfn = keyfn
        self.term_of = {}

    def __missing__(self, t):
        k = 0
        for x in self.keyfn(t):
            if not -_HALF <= x < _HALF:
                raise OverflowError(f"order key component {x} out of range")
            k = (k << 32) | (x + _HALF)
        self[t] = k
        self.term_of[k] = t
        return k

    def lead(self, terms):
        """The largest term of a nonempty term dict."""
        return max(terms, key=self.__getitem__)


def _sorted_with_leads(elements, leads, keys):
    """Elements and their leads, by degree then lead term (stable)."""
    pairs = sorted(zip(elements, leads), key=lambda p: (p[0].degree(), keys[p[1]]))
    return [e for e, _ in pairs], [t for _, t in pairs]


def _normal_form_terms(terms, field, by_pos, keys):
    """Full normal form of a term dict against monic reducers indexed by lead
    position: by_pos[pos] = list of (lead_mono, terms_dict); the first whose
    lead divides a term reduces it.

    Pending terms sit in a heap of negated order keys (keys: a `TermKeys`).
    The largest is popped each step; a term cancelled meanwhile is skipped
    when its entry comes up. The output lists its terms in decreasing order,
    so its first term is its lead.
    """
    pending = dict(terms)
    heap = [-keys[t] for t in pending]
    heapq.heapify(heap)
    term_of = keys.term_of
    pop, push = heapq.heappop, heapq.heappush
    out = {}
    zero = field.zero
    sub, mul = field.sub, field.mul
    while heap:
        t = term_of[-pop(heap)]
        c = pending.pop(t, None)
        if c is None:
            continue
        pos, m = t
        for gm, gterms in by_pos.get(pos, ()):
            if gm[0] <= m[0] and gm[1] <= m[1] and gm[2] <= m[2]:
                break
        else:
            out[t] = c
            continue
        s0, s1, s2 = m[0] - gm[0], m[1] - gm[1], m[2] - gm[2]
        lead_key = (pos, gm)
        for tt, cc in gterms.items():
            if tt == lead_key:
                continue
            p2, m2 = tt
            key2 = (p2, (m2[0] + s0, m2[1] + s1, m2[2] + s2))
            old = pending.get(key2)
            if old is None:
                pending[key2] = sub(zero, mul(cc, c))
                push(heap, -keys[key2])
                continue
            s = sub(old, mul(cc, c))
            if s == zero:
                del pending[key2]
            else:
                pending[key2] = s
    return out


def _index_leads(elements, leads):
    by_pos = {}
    for e, (pos, m) in zip(elements, leads):
        by_pos.setdefault(pos, []).append((m, e.terms))
    return by_pos


class RawBasis:
    """A monic interreduced Groebner basis of a submodule, with its order.

    leads[i] is the lead term of elements[i]; keys memoizes the order keys
    (computed from keyfn when not given).
    """

    def __init__(self, ambient, field, keyfn, elements, leads, keys=None):
        self.ambient = ambient
        self.field = field
        self.keyfn = keyfn
        self.elements = elements
        self.keys = TermKeys(keyfn) if keys is None else keys
        self.leads = leads
        self.by_pos = _index_leads(elements, leads)

    def normal_form(self, e: ModuleElement) -> ModuleElement:
        terms = _normal_form_terms(e.terms, self.field, self.by_pos, self.keys)
        return ModuleElement(e.ambient, self.field, terms)


def buchberger(gens, ambient, field, keyfn) -> RawBasis:
    """Reduced Groebner basis; normal (min-degree-first) pair selection.

    Buchberger's product criterion is used for ideals (rank-one ambient),
    the only case where it is valid.
    """
    rank1_criterion = ambient.rank == 1
    minus_one = field.neg(field.one)
    keys = TermKeys(keyfn)
    work = [g for g in gens if not g.is_zero()]
    for g in work:
        if not g.is_homogeneous():
            raise ValueError("groebner engine requires homogeneous input")
    work, _ = _sorted_with_leads(work, [keys.lead(g.terms) for g in work], keys)

    G = []  # monic elements
    leads = []  # (pos, mono)
    by_pos = {}  # pos -> [(lead mono, terms)], in the order of G
    pairs = []  # heap of (degree, i, j)
    done = set()

    def add_pairs(j):
        pj, mj = leads[j]
        dj = G[j].degree()
        for i in range(j):
            pi, mi = leads[i]
            if pi != pj:
                continue
            if rank1_criterion and mono_lcm(mi, mj) == (
                mi[0] + mj[0],
                mi[1] + mj[1],
                mi[2] + mj[2],
            ):
                done.add((i, j))
                continue
            L = mono_lcm(mi, mj)
            deg = mono_deg(L) - mono_deg(mj) + dj
            heapq.heappush(pairs, (deg, i, j))

    def add_elem(terms):
        lead = next(iter(terms))
        e = ModuleElement(ambient, field, terms).scale(field.inv(terms[lead]))
        G.append(e)
        leads.append(lead)
        by_pos.setdefault(lead[0], []).append((lead[1], e.terms))
        add_pairs(len(G) - 1)

    work_deg = [g.degree() for g in work]
    qi = 0
    while qi < len(work) or pairs:
        take_gen = qi < len(work) and (not pairs or work_deg[qi] <= pairs[0][0])
        if take_gen:
            g = work[qi]
            qi += 1
            terms = _normal_form_terms(g.terms, field, by_pos, keys)
            if terms:
                add_elem(terms)
            continue
        deg, i, j = heapq.heappop(pairs)
        if (i, j) in done:
            continue
        done.add((i, j))
        pi, mi = leads[i]
        pj, mj = leads[j]
        L = mono_lcm(mi, mj)
        # chain criterion
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            pk, mk = leads[k]
            if pk == pi and mono_divides(mk, L):
                a, b = (i, k) if i < k else (k, i)
                c, d = (j, k) if j < k else (k, j)
                if (a, b) in done and (c, d) in done:
                    skip = True
                    break
        if skip:
            continue
        s = G[i].mono_shift(mono_div(L, mi), field.one).terms
        add_terms(field, s, G[j].mono_shift(mono_div(L, mj), minus_one).terms)
        terms = _normal_form_terms(s, field, by_pos, keys)
        if terms:
            add_elem(terms)

    # Elements joined in non-decreasing degree, each fully reduced by the
    # earlier ones, so no lead divides another and G is a minimal basis.
    # Replacing each tail by its normal form against G gives the reduced
    # basis; a tail term has the lead's degree, so the own lead never
    # divides it.
    for i, (e, lead) in enumerate(zip(G, leads)):
        tail = dict(e.terms)
        terms = {lead: tail.pop(lead)}
        terms.update(_normal_form_terms(tail, field, by_pos, keys))
        G[i] = ModuleElement(ambient, field, terms)
    G, leads = _sorted_with_leads(G, leads, keys)
    return RawBasis(ambient, field, keyfn, G, leads, keys)


class SubmoduleGB:
    """Groebner data for a submodule given by generators.

    With syzygies=True the block computation also yields generators of the
    syzygy module of the input generators (`syzygies`) and membership
    certificates (`representation`); without it, neither is available.
    """

    def __init__(self, gens, syzygies=False):
        elems, ambient = _as_elements(gens)
        if not elems:
            raise ValueError("empty generating set")
        self.gens = elems
        self.ambient = ambient
        self.field = elems[0].field
        self.keyfn = top_key
        self.gen_degrees = tuple(g.degree() for g in elems)
        self.syz_ambient = FreeGradedModule(self.gen_degrees)
        if syzygies:
            self._compute_block()
        else:
            self._plain = buchberger(elems, ambient, self.field, self.keyfn)

    # --- block (syzygy) computation ------------------------------------

    def _compute_block(self):
        k = self.ambient.rank
        r = len(self.gens)
        twists = self.ambient.twists + self.gen_degrees
        big = FreeGradedModule(twists)
        field = self.field
        keyfn = block_elim_key(k)
        hs = []
        for i, g in enumerate(self.gens):
            terms = dict(g.terms)
            terms[(k + i, (0, 0, 0))] = field.one
            hs.append(ModuleElement(big, field, terms))
        basis = buchberger(hs, big, field, keyfn)
        gb = []
        gb_leads = []
        syz = []
        for e, lead in zip(basis.elements, basis.leads):
            fpart = {t: c for t, c in e.terms.items() if t[0] < k}
            if fpart:
                gb.append(ModuleElement(self.ambient, field, fpart))
                # F-terms beat bookkeeping terms and are ordered as in
                # self.keyfn, so the block lead is the lead of fpart
                gb_leads.append(lead)
            else:
                epart = {(p - k, m): c for (p, m), c in e.terms.items()}
                syz.append(ModuleElement(self.syz_ambient, field, epart))
        self._block = basis
        self._block_split = k
        self.syzygies = syz
        self._plain = RawBasis(self.ambient, self.field, self.keyfn, gb, gb_leads)

    # --- public surface -------------------------------------------------

    @property
    def basis(self):
        """Reduced Groebner basis elements of the submodule."""
        return self._plain.elements

    def normal_form(self, v):
        if isinstance(v, Polynomial):
            e = poly_to_element(v, self.ambient)
            return self._plain.normal_form(e).component(0)
        if v.ambient != self.ambient:
            raise ValueError("ambient module mismatch")
        return self._plain.normal_form(v)

    def contains(self, v) -> bool:
        return self.normal_form(v).is_zero()

    def representation(self, v) -> ModuleElement:
        """Cofactors a with v = sum a_i * gens_i; raises if v not a member."""
        if isinstance(v, Polynomial):
            v = poly_to_element(v, self.ambient)
        big = FreeGradedModule(self.ambient.twists + self.gen_degrees)
        e = ModuleElement(big, self.field, dict(v.terms))
        nf = self._block.normal_form(e)
        k = self._block_split
        if any(p < k for p, _ in nf.terms):
            raise ValueError("element is not in the submodule")
        rep = {
            (p - k, m): self.field.neg(c) for (p, m), c in nf.terms.items()
        }
        return ModuleElement(self.syz_ambient, self.field, rep)

    # --- rank-one (ideal) staircase utilities ---------------------------

    def lead_monomials(self):
        assert self.ambient.rank == 1
        return tuple(sorted(m for _, m in self._plain.leads))

    @cached_property
    def numerator(self):
        """Hilbert series numerator of S/I, from the staircase of the leads."""
        return hilbert_numerator(self.lead_monomials())

    def colength(self):
        """Eventual Hilbert function of S/I, or None when V(I) is not finite.

        Beyond the numerator degree the Hilbert function equals the Hilbert
        polynomial (quadratic in t); three equal consecutive values pin it
        to a constant.
        """
        v = _hilbert_polynomial_values([self.numerator])[0]
        return v[0] if v[0] == v[1] == v[2] else None


def hilbert_numerator(lead_monomials):
    """Hilbert series numerator of S/(monomial ideal) over (1-t)^3, as
    {degree: coefficient} like `resolution.hilbert_series`."""

    @lru_cache(maxsize=None)
    def rec(gens):
        if not gens:
            return {0: 1}
        if (0, 0, 0) in gens:
            return {}
        gens = _interreduce_monomials(gens)
        # S/(rest + head) = S/(rest) - t^deg(head) * S/(rest : head)
        head, rest = gens[-1], gens[:-1]
        num = Counter(rec(rest))
        d = mono_deg(head)
        colon = tuple(sorted(mono_div(mono_lcm(g, head), head) for g in rest))
        for a, c in rec(colon).items():
            num[a + d] -= c
        return {a: c for a, c in sorted(num.items()) if c}

    return rec(_interreduce_monomials(tuple(sorted(lead_monomials))))


def _hilbert_polynomial_values(nums):
    """For each Hilbert series numerator, the Hilbert function at four
    consecutive degrees past every numerator's degree, where it agrees with
    the Hilbert polynomial; three values fix a polynomial of degree <= 2."""
    t0 = max(max(num, default=0) + 1 for num in nums)
    return [[hilbert_series_value(num, t) for t in range(t0, t0 + 4)] for num in nums]


def _interreduce_monomials(gens):
    out = []
    for g in sorted(set(gens), key=mono_deg):
        if not any(mono_divides(h, g) for h in out):
            out.append(g)
    return tuple(sorted(out))


# --- ideal-level operations ---------------------------------------------


def groebner_basis(gens):
    """Reduced Groebner basis of the ideal/submodule generated by gens."""
    return SubmoduleGB(gens, syzygies=False)


def syzygies(gens):
    """Generators of the syzygy module of a homogeneous generating set."""
    return SubmoduleGB(gens, syzygies=True).syzygies


def colon(gens, g: Polynomial):
    """Generators of (I : g)."""
    if g.is_zero():
        raise ValueError("colon by zero")
    sub = SubmoduleGB(list(gens) + [g], syzygies=True)
    out = []
    last = len(gens)
    for s in sub.syzygies:
        q = s.component(last)
        if not q.is_zero():
            out.append(q)
    return _prune_ideal_gens(out)


def _prune_ideal_gens(gens):
    """Deterministic small generating set: a minimal subset of gens."""
    from .linalg import minimal_generators

    amb = FreeGradedModule((0,))
    elems = [poly_to_element(p, amb) for p in gens if not p.is_zero()]
    if not elems:
        return [Polynomial.zero(gens[0].field)]
    kept = minimal_generators(elems)
    return [e.component(0) for e in kept]


def submodule_quotient(M, N):
    """Present <M>/<N> on the elements of M that are not in N.

    A position of M that holds an element of N is zero in the quotient and is
    dropped. The relations are the syzygies of M and the expressions of the
    other elements of N in terms of M, less their entries at the dropped
    positions; raises ValueError if some element of N is not in <M>. When M
    is a minimal generating set of <M> in which the elements of N it holds
    span <N> modulo the maximal ideal times <M>, no relation has a constant
    entry: the presentation is minimal (graded Nakayama).
    """
    sub = SubmoduleGB(M, syzygies=True)
    n_elems, _ = _as_elements(list(N))
    in_m, in_n = set(sub.gens), set(n_elems)
    relations = sub.syzygies + [sub.representation(n) for n in n_elems if n not in in_m]
    dropped = {i for i, g in enumerate(sub.gens) if g in in_n}
    return drop_generators(sub.syz_ambient, relations, dropped)


def _shear(p: Polynomial, a, b) -> Polynomial:
    """p(x, y, z + a*x + b*y)."""
    field = p.field
    line = Polynomial.from_terms(field, [((0, 0, 1), 1), ((1, 0, 0), a), ((0, 1, 0), b)])
    out, power = Polynomial.zero(field), Polynomial.constant(field, 1)
    for k in range(p.degree() + 1):
        part = {(i, j, 0): c for (i, j, e), c in p.terms.items() if e == k}
        out, power = out + Polynomial(field, part) * power, power * line
    return out


def _line_candidates(field):
    """(a, b) for the lines z + a*x + b*y, small coefficients first.

    Over GF(p) every one of the p^2 such lines comes exactly once; over the
    rationals the sequence does not end.
    """
    p = field.prime
    n = 0
    while p is None or n <= 2 * (p - 1):
        for a in range(n + 1):
            if p is None or (a < p and n - a < p):
                yield field.coerce(a), field.coerce(n - a)
        n += 1


def _strip_z(p: Polynomial) -> Polynomial:
    """p divided by the largest power of z that divides it."""
    k = min(m[2] for m in p.terms)
    return Polynomial(p.field, {(m[0], m[1], m[2] - k): c for m, c in p.terms.items()})


def saturate(gb: SubmoduleGB) -> SubmoduleGB:
    """The reduced grevlex basis of the saturation of I at (x, y, z), from
    gb, a Groebner basis of the ideal I (a `SubmoduleGB` of rank one).

    One pass after Bayer and Stillman: if a linear form l lies in no
    associated prime of I other than the irrelevant one, I^sat = I : l^inf.
    Lines l = z + a*x + b*y are tried in a fixed order; z |-> z - a*x - b*y
    moves l to z, and in grevlex in(I' : z) = in(I') : z, so dividing each
    element of the grevlex basis of I' by its largest power of z gives a
    basis of I' : z^inf. A line is accepted when S/(I' : z^inf) has the
    Hilbert polynomial of S/I, which fails exactly when l passes through an
    associated point. Before that, a line is tested on the binary forms
    I + (l) restricts to: l is a nonzerodivisor modulo I^sat iff
    HP(S/(I + l))(t) = HP(S/I)(t) - HP(S/I)(t - 1). The result is moved
    back, and its reduced basis returned.
    """
    gens = [e.component(0) for e in gb.gens]
    field = gb.field
    z = Polynomial.variable(field, 2)
    for a, b in _line_candidates(field):
        moved = [_shear(g, field.neg(a), field.neg(b)) for g in gens]
        cut = groebner_basis(moved + [z]).numerator
        hp, hp_cut = _hilbert_polynomial_values([gb.numerator, cut])
        if any(hp_cut[i] != hp[i] - hp[i - 1] for i in (1, 2, 3)):
            continue
        moved_gb = gb if moved == gens else groebner_basis(moved)
        colon_leads = [(m[0], m[1], 0) for m in moved_gb.lead_monomials()]
        hp, hp_colon = _hilbert_polynomial_values([gb.numerator, hilbert_numerator(colon_leads)])
        if hp_colon != hp:
            continue
        return groebner_basis([_shear(_strip_z(e.component(0)), a, b) for e in moved_gb.basis])
    raise InputError(
        f"no line z + a*x + b*y over GF({field.prime}) avoids the subscheme; "
        "the saturation needs a larger field"
    )
