"""Buchberger's algorithm for ideals and submodules of free graded modules.

Everything is computed on module elements; an ideal is the rank-one case.
Syzygies, membership certificates and Groebner bases come out of a single
run on the block module F + S^r with generators g_i + e_i, under an order
in which every F-term beats every bookkeeping term.

The reduction kernel works on packed integer order keys (`TermKeys`), in
the manner of Monagan and Pearce's packed-exponent heap division (CASC
2007): the keys of `orders.top_key` and `orders.block_elim_key` are affine
in the monomial, so shifting a reducer's term by a monomial adds one
integer to its key, and a term is decoded from its key's low four fields,
(deg, -z, -y, -pos), only when it is popped.

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
    mono_mul,
    top_key,
)
from .poly import Polynomial


def _as_elements(gens):
    """Normalize a generating set (polynomials or elements) to elements."""
    if not gens:
        return [], FreeGradedModule((0,))
    if isinstance(gens[0], Polynomial):
        ambient = FreeGradedModule((0,))
        return [poly_to_element(g, ambient) for g in gens], ambient
    return list(gens), gens[0].ambient


_HALF = 1 << 31
_MASK = (1 << 32) - 1


class TermKeys(dict):
    """Order keys of (pos, mono) terms, memoized per Groebner run.

    keys[t] packs keyfn(t), a flat tuple of ints, into one integer of 32 bits
    per component, so a larger integer is a larger term. All keys of one
    keyfn have the same length, which makes integer order the lexicographic
    order of the tuples.

    The reduction kernel relies on the layout of `orders.top_key` and
    `orders.block_elim_key`: the key is affine in the monomial, with the same
    linear part at every position, so key(pos, m * x^s) = key(pos, m) +
    key(p, n * x^s) - key(p, n) for any p, n; and its last four components
    are (deg m, -m_z, -m_y, -pos), from which `_reduce` decodes the
    term. Keys shifted that way are not range-checked again: they stay
    in range because every term of a homogeneous reduction has the input's
    degree.
    """

    __slots__ = ("keyfn",)

    def __init__(self, keyfn):
        super().__init__()
        self.keyfn = keyfn

    def __missing__(self, t):
        k = 0
        for x in self.keyfn(t):
            if not -_HALF <= x < _HALF:
                raise OverflowError(f"order key component {x} out of range")
            k = (k << 32) | (x + _HALF)
        self[t] = k
        return k

    def lead(self, terms):
        """The largest term of a nonempty term dict."""
        return max(terms, key=self.__getitem__)


def _sorted_with_leads(elements, leads, keys):
    """Elements and their leads, by degree then lead term (stable)."""
    pairs = sorted(zip(elements, leads), key=lambda p: (p[0].degree(), keys[p[1]]))
    return [e for e, _ in pairs], [t for _, t in pairs]


def _reducer(terms, lead, keys):
    """A monic element as the kernel reads it: (lead mono, lead key, tail),
    the tail a list of (key, -coefficient) of its other terms."""
    return lead[1], keys[lead], [(keys[t], -c) for t, c in terms.items() if t != lead]


def _index_leads(elements, leads, keys):
    """Reducers by lead position: by_pos[pos] lists `_reducer`s in order."""
    by_pos = {}
    for e, lead in zip(elements, leads):
        by_pos.setdefault(lead[0], []).append(_reducer(e.terms, lead, keys))
    return by_pos


def _normal_form_terms(terms, field, by_pos, keys):
    """Full normal form of a term dict against monic reducers indexed by lead
    position (see `_index_leads`); the first reducer whose lead divides a
    term reduces it. The output lists its terms in decreasing order, so its
    first term is its lead."""
    return _reduce({keys[t]: c for t, c in terms.items()}, field, by_pos, keys)


def _reduce(pending, field, by_pos, keys):
    """`_normal_form_terms` on pending terms given as {packed key: coefficient}.

    Pending terms sit in a heap of negated keys and the largest is popped
    each step. A reducer with lead key g cancels the popped key k and adds
    each tail term at its key plus k - g (see `TermKeys`). Over GF(p)
    pending coefficients are plain ints, reduced mod p once, when popped; a
    term that is then 0 is skipped. Reducers only add terms below the popped
    one, so no key is pushed twice or popped twice. The keys of the output
    terms are memoized in keys.
    """
    heap = [-k for k in pending]
    heapq.heapify(heap)
    pop, push, get = heapq.heappop, heapq.heappush, pending.get
    p = field.prime
    out = {}
    while heap:
        k = -pop(heap)
        c = pending.pop(k)
        if p:
            c %= p
        if not c:
            continue
        pos = _HALF - (k & _MASK)
        y = _HALF - ((k >> 32) & _MASK)
        z = _HALF - ((k >> 64) & _MASK)
        x = ((k >> 96) & _MASK) - _HALF - y - z
        for gm, gkey, tail in by_pos.get(pos, ()):
            if gm[0] <= x and gm[1] <= y and gm[2] <= z:
                break
        else:
            t = (pos, (x, y, z))
            out[t] = c
            keys[t] = k
            continue
        delta = k - gkey
        for kk, cc in tail:
            k2 = kk + delta
            old = get(k2)
            if old is None:
                pending[k2] = cc * c
                push(heap, -k2)
            else:
                pending[k2] = old + cc * c
    return out


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

    @cached_property
    def by_pos(self):
        return _index_leads(self.elements, self.leads, self.keys)

    def normal_form(self, e: ModuleElement) -> ModuleElement:
        terms = _normal_form_terms(e.terms, self.field, self.by_pos, self.keys)
        return ModuleElement(e.ambient, self.field, terms)


def buchberger(gens, ambient, field, keyfn) -> RawBasis:
    """Reduced Groebner basis; normal (min-degree-first) pair selection.

    Buchberger's product criterion is used for ideals (rank-one ambient),
    the only case where it is valid. An S-polynomial is built in the
    kernel's packed form from the two tails, since the leads cancel.
    """
    rank1_criterion = ambient.rank == 1
    keys = TermKeys(keyfn)
    work = [g for g in gens if not g.is_zero()]
    for g in work:
        if not g.is_homogeneous():
            raise ValueError("groebner engine requires homogeneous input")
    work, _ = _sorted_with_leads(work, [keys.lead(g.terms) for g in work], keys)

    G = []  # monic elements
    leads = []  # (pos, mono)
    reducers = []  # `_reducer` of each element
    by_pos = {}  # pos -> reducers, in the order of G
    pairs = []  # heap of (degree, i, j)
    done = set()

    def add_pairs(j):
        pj, mj = leads[j]
        dj = G[j].degree() - mono_deg(mj)
        for i in range(j):
            pi, mi = leads[i]
            if pi != pj:
                continue
            L = mono_lcm(mi, mj)
            if rank1_criterion and L == mono_mul(mi, mj):
                done.add((i, j))
                continue
            heapq.heappush(pairs, (mono_deg(L) + dj, i, j))

    def add_elem(terms):
        lead = next(iter(terms))
        e = ModuleElement(ambient, field, terms).scale(field.inv(terms[lead]))
        red = _reducer(e.terms, lead, keys)
        G.append(e)
        leads.append(lead)
        reducers.append(red)
        by_pos.setdefault(lead[0], []).append(red)
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
        # S = x^(L - mi) G[i] - x^(L - mj) G[j]; the tails hold -coefficients
        kL = keys[(pi, L)]
        _, ki, tail_i = reducers[i]
        _, kj, tail_j = reducers[j]
        di, dj = kL - ki, kL - kj
        s = {kk + dj: cc for kk, cc in tail_j}
        for kk, cc in tail_i:
            k2 = kk + di
            s[k2] = s.get(k2, 0) - cc
        terms = _reduce(s, field, by_pos, keys)
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
