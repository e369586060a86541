"""Buchberger's algorithm for ideals and submodules of free graded modules.

Everything is computed on module elements; an ideal is the rank-one case.
Syzygies and Groebner bases come out of a single run on the block module
F + S^r with generators g_i + e_i, under an order in which every F-term
beats every bookkeeping term.

The reduction kernel works on packed integer order keys (`TermKeys`), in
the manner of Monagan and Pearce's packed-exponent heap division (CASC
2007): the keys of `orders.top_key` and `orders.block_elim_key` are affine
in the monomial, so shifting a reducer's term by a monomial adds one
integer to its key, and a term is decoded from its key's low four fields,
(deg, -z, -y, -pos), only when it is popped. Its coefficients are Python
ints over both fields: over GF(p) the field's own, over Q numerators over
one shared denominator, cleared fraction-free in the manner of Monagan and
Pearce's heap pseudo-division (J. Symbolic Comput. 46, 2011), so no
Fraction is built inside a reduction.

Saturation at the irrelevant ideal is a single Bayer-Stillman pass: after a
linear change of coordinates that moves a line missing every associated
point to z = 0, the grevlex basis divided by its powers of z is a basis of
the saturation (see `saturate`).
"""

from __future__ import annotations

import heapq
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import gcd, lcm

from .errors import InputError, InvariantError
from .linalg import cofactors
from .modules import FreeGradedModule, ModuleElement, drop_generators, poly_to_element
from .orders import (
    block_elim_key,
    hilbert_polynomial,
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


def _reducer(terms, lead, keys, field):
    """A monic element as the kernel reads it: (lead mono, lead key, a, tail).

    a is the least common denominator of the element's coefficients over Q,
    and 1 over GF(p); the tail lists (key, -a * coefficient) of the other
    terms, all ints, so a times the element is a at the lead and the negated
    tail.
    """
    a = 1
    if field.prime is None:
        # pairwise: lcm(*...) builds an argument tuple per call, and those
        # short-lived tuples left about 1 MB more resident memory on qci-q
        a = reduce(lcm, (c.denominator for c in terms.values()), 1)
        tail = [(keys[t], -c.numerator * (a // c.denominator)) for t, c in terms.items() if t != lead]
    else:
        tail = [(keys[t], -c) for t, c in terms.items() if t != lead]
    return lead[1], keys[lead], a, tail


def _index_leads(elements, leads, keys):
    """Reducers by lead position: by_pos[pos] lists `_reducer`s in order."""
    by_pos = {}
    for e, lead in zip(elements, leads):
        by_pos.setdefault(lead[0], []).append(_reducer(e.terms, lead, keys, e.field))
    return by_pos


def _normal_form_terms(terms, field, by_pos, keys):
    """Full normal form of a term dict against monic reducers indexed by lead
    position (see `_index_leads`); the first reducer whose lead divides a
    term reduces it. The output lists its terms in decreasing order, so its
    first term is its lead."""
    if field.prime is not None:
        return _reduce({keys[t]: c for t, c in terms.items()}, field, by_pos, keys)
    den = reduce(lcm, (c.denominator for c in terms.values()), 1)
    pending = {keys[t]: c.numerator * (den // c.denominator) for t, c in terms.items()}
    return _reduce(pending, field, by_pos, keys, den)


def _reduce(pending, field, by_pos, keys, den=1):
    """`_normal_form_terms` on pending terms given as {packed key: integer},
    the coefficients being those integers over den.

    Pending terms sit in a heap of negated keys and the largest is popped
    each step. A reducer (see `_reducer`) with lead key g cancels the popped
    key k and adds each tail term at its key plus k - g (see `TermKeys`).
    Over GF(p) den is 1 and pending coefficients are plain ints, reduced mod
    p once, when popped; a term that is then 0 is skipped. Over Q the kernel
    divides fraction-free (Monagan and Pearce, J. Symbolic Comput. 46, 2011):
    to cancel c/den by a reducer of denominator a, every pending and output
    integer, and den, is multiplied by a/gcd(a, c), and c/gcd(a, c) times
    the reducer's integer tail is added. Reducers only add terms below the
    popped one, so no key is pushed twice or popped twice. The output holds
    field elements; the keys of its terms are memoized in keys.
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
        for gm, gkey, a, tail in by_pos.get(pos, ()):
            if gm[0] <= x and gm[1] <= y and gm[2] <= z:
                break
        else:
            t = (pos, (x, y, z))
            out[t] = c
            keys[t] = k
            continue
        if a != 1:
            g = gcd(a, c)
            c //= g
            m = a // g
            if m != 1:
                den *= m
                for kk in pending:
                    pending[kk] *= m
                for t in out:
                    out[t] *= m
        delta = k - gkey
        for kk, cc in tail:
            k2 = kk + delta
            old = get(k2)
            if old is None:
                pending[k2] = cc * c
                push(heap, -k2)
            else:
                pending[k2] = old + cc * c
    if p:
        return out
    return {t: Fraction(c, den) for t, c in out.items()}


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
    kernel's packed form from the two integer tails, since the leads cancel;
    over Q that is a_i a_j S, which has the same monic normal form as S.
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
        red = _reducer(e.terms, lead, keys, field)
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
        # a_i a_j S = a_j x^(L - mi) a_i G[i] - a_i x^(L - mj) a_j G[j], in
        # integers; the tails hold -a * coefficients
        kL = keys[(pi, L)]
        _, ki, ai, tail_i = reducers[i]
        _, kj, aj, tail_j = reducers[j]
        di, dj = kL - ki, kL - kj
        s = {kk + dj: ai * cc for kk, cc in tail_j}
        for kk, cc in tail_i:
            k2 = kk + di
            s[k2] = s.get(k2, 0) - aj * cc
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
    syzygy module of the input generators (`syzygies`); without it, they
    are not available.
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

    # --- rank-one (ideal) staircase utilities ---------------------------

    def lead_monomials(self):
        assert self.ambient.rank == 1
        return tuple(sorted(m for _, m in self._plain.leads))

    @cached_property
    def numerator(self):
        """Hilbert series numerator of S/I, from the staircase of the leads."""
        return hilbert_numerator(self.lead_monomials())

    def colength(self):
        """Degree of V(I), the constant Hilbert polynomial of S/I, or None
        when V(I) is not finite."""
        e0, e1, e2 = hilbert_polynomial(self.numerator)
        return e2 if e0 == e1 == 0 else None


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
    """Generators of (I : g), the last components of the syzygies of (gens, g)."""
    if g.is_zero():
        raise ValueError("colon by zero")
    last = len(gens)
    syz = SubmoduleGB(list(gens) + [g], syzygies=True).syzygies
    return [q for q in (e.component(last) for e in syz) if not q.is_zero()]


def submodule_quotient(M, N):
    """Present <M>/<N> on the elements of M that are not in N.

    A position of M that holds an element of N is zero in the quotient and is
    dropped. The relations are the syzygies of M and the expressions of the
    other elements of N in terms of M (`linalg.cofactors`, one solve per
    degree), less their entries at the dropped positions; raises ValueError
    if some element of N is not in <M>. When M is a minimal generating set
    of <M> in which the elements of N it holds span <N> modulo the maximal
    ideal times <M>, no relation has a constant entry: the presentation is
    minimal (graded Nakayama).
    """
    sub = SubmoduleGB(M, syzygies=True)
    n_elems, _ = _as_elements(list(N))
    in_m, in_n = set(sub.gens), set(n_elems)
    by_degree = {}
    for n in n_elems:
        if n not in in_m:
            by_degree.setdefault(n.degree(), []).append(n)
    relations = list(sub.syzygies)
    for targets in by_degree.values():
        try:
            relations += cofactors(targets, sub.gens)
        except InvariantError as exc:
            raise ValueError("an element of N is not in <M>") from exc
    dropped = {i for i, g in enumerate(sub.gens) if g in in_n}
    return drop_generators(sub.syz_ambient, relations, dropped)


def _substitute_z(p: Polynomial, form: Polynomial) -> Polynomial:
    """p(x, y, form), by Horner's rule in z."""
    field = p.field
    out = Polynomial.zero(field)
    for k in range(max((m[2] for m in p.terms), default=-1), -1, -1):
        part = {(i, j, 0): c for (i, j, e), c in p.terms.items() if e == k}
        out = form * out + Polynomial(field, part)
    return out


def _shear(p: Polynomial, a, b) -> Polynomial:
    """p(x, y, z + a*x + b*y)."""
    line = Polynomial.from_terms(p.field, [((0, 0, 1), 1), ((1, 0, 0), a), ((0, 1, 0), b)])
    return _substitute_z(p, line)


def _line_candidates(field):
    """(a, b) for the lines z + a*x + b*y, small coefficients first.

    The identity line z comes first, so an ideal with no associated point on
    z = 0 is saturated with no shear. Over GF(p) every one of the p^2 such
    lines comes exactly once; over the rationals the sequence does not end.
    """
    p = field.prime
    n = 0
    while p is None or n <= 2 * (p - 1):
        for a in range(n + 1):
            if p is None or (a < p and n - a < p):
                yield field.coerce(a), field.coerce(n - a)
        n += 1


def _univariate_gcd(u: Polynomial, v: Polynomial) -> Polynomial:
    """A gcd of two polynomials in x alone, by Euclid's algorithm."""
    field = u.field
    while not v.is_zero():
        dv = v.degree()
        inv = field.inv(v.terms[(dv, 0, 0)])
        while u.degree() >= dv:
            du = u.degree()
            u = u - v.mono_shift((du - dv, 0, 0), field.mul(u.terms[(du, 0, 0)], inv))
        u, v = v, u
    return u


def _line_cut(gens, a, b):
    """The Hilbert polynomial of S/(I + l) as `orders.hilbert_polynomial`
    writes it, for I = (gens) and l = z + a*x + b*y, from the restrictions
    of the generators to l alone.

    S/(I + l) is k[x, y]/(r_i) with r_i = g_i(x, y, -a*x - b*y). That is
    k[x, y], of Hilbert polynomial t + 1, when every r_i vanishes, and
    otherwise has the constant Hilbert polynomial deg h, h = gcd(r_i). With
    u_i = r_i(x, 1), r_i is y^(deg g_i - deg u_i) times u_i made homogeneous,
    so deg h = min(deg g_i - deg u_i) + deg gcd(u_i) over the nonzero u_i.
    """
    field = gens[0].field
    z_on_l = Polynomial.from_terms(field, [((1, 0, 0), field.neg(a)), ((0, 0, 0), field.neg(b))])
    h, y_powers = Polynomial.zero(field), []
    for g in gens:
        at_y1 = Polynomial(field, {(i, 0, k): c for (i, _, k), c in g.terms.items()})
        u = _substitute_z(at_y1, z_on_l)
        if not u.is_zero():
            h = _univariate_gcd(h, u)
            y_powers.append(g.degree() - u.degree())
    if not y_powers:
        return (0, 1, 0)
    return (0, 0, min(y_powers) + h.degree())


def _strip_z(p: Polynomial) -> Polynomial:
    """p divided by the largest power of z that divides it."""
    k = min(m[2] for m in p.terms)
    return Polynomial(p.field, {(m[0], m[1], m[2] - k): c for m, c in p.terms.items()})


def saturate(gb: SubmoduleGB) -> SubmoduleGB:
    """The reduced grevlex basis of the saturation of I at (x, y, z), from
    gb, a Groebner basis of the ideal I (a `SubmoduleGB` of rank one).

    One pass after Bayer and Stillman: if a linear form l lies in no
    associated prime of I other than the irrelevant one, I^sat = I : l^inf.
    Lines l = z + a*x + b*y are tried in a fixed order, each cut down to the
    binary forms I + (l) restricts to. By the exact sequence
    0 -> ((I : l)/I)(-1) -> (S/I)(-1) -> S/I -> S/(I + l) -> 0, l is a
    nonzerodivisor modulo I^sat iff HP(S/(I + l))(t) = HP(S/I)(t) -
    HP(S/I)(t - 1), that is (0, e0, e1) for HP(S/I) = (e0, e1, e2) as
    `orders.hilbert_polynomial` writes it; `_line_cut` reads HP(S/(I + l))
    off a gcd of the restrictions, with no shear and no Groebner basis. The
    first line that passes is moved: z |-> z - a*x - b*y moves l to z (the
    identity for z itself), and in grevlex in(I' : z) = in(I') : z, so
    dividing each element of the grevlex basis of I' by its largest power of
    z gives a basis of I' : z^inf = I'^sat. The result is moved back, and its
    reduced basis returned; that basis does not depend on the line.
    """
    gens = [e.component(0) for e in gb.gens]
    field = gb.field
    e0, e1, _ = hilbert_polynomial(gb.numerator)
    for a, b in _line_candidates(field):
        if _line_cut(gens, a, b) != (0, e0, e1):
            continue
        if a or b:
            moved_gb = groebner_basis([_shear(g, field.neg(a), field.neg(b)) for g in gens])
        else:  # z itself needs no shear
            moved_gb = gb
        sat = [_strip_z(e.component(0)) for e in moved_gb.basis]
        if a or b:
            sat = [_shear(p, a, b) for p in sat]
        return groebner_basis(sat)
    raise InputError(
        f"no line z + a*x + b*y over GF({field.prime}) avoids the subscheme; "
        "the saturation needs a larger field"
    )
