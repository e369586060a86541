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
from functools import lru_cache

from .errors import InputError
from .modules import FreeGradedModule, ModuleElement, poly_to_element
from .orders import (
    GREVLEX,
    block_elim_key,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
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


def _term_sort_key(keyfn):
    def key(e):
        return (e.degree(), keyfn(e.lead(keyfn)[0]))

    return key


def _normal_form_terms(terms, field, by_pos, keyfn):
    """Full normal form of a term dict against monic reducers indexed by lead
    position: by_pos[pos] = list of (lead_mono, terms_dict)."""
    terms = dict(terms)
    out = {}
    zero = field.zero
    sub, mul = field.sub, field.mul
    while terms:
        t = max(terms, key=keyfn)
        c = terms.pop(t)
        pos, m = t
        red = None
        for gm, gterms in by_pos.get(pos, ()):
            if mono_divides(gm, m):
                red = (gm, gterms)
                break
        if red is None:
            out[t] = c
            continue
        gm, gterms = red
        shift = mono_div(m, gm)
        lead_key = (pos, gm)
        for tt, cc in gterms.items():
            if tt == lead_key:
                continue
            p2, m2 = tt
            key2 = (p2, (m2[0] + shift[0], m2[1] + shift[1], m2[2] + shift[2]))
            s = sub(terms.get(key2, zero), mul(cc, c))
            if s == zero:
                terms.pop(key2, None)
            else:
                terms[key2] = s
    return out


class RawBasis:
    """A monic interreduced Groebner basis of a submodule, with its order."""

    def __init__(self, ambient, field, keyfn, elements):
        self.ambient = ambient
        self.field = field
        self.keyfn = keyfn
        self.elements = elements
        self.by_pos = {}
        for e in elements:
            (pos, m), _ = e.lead(keyfn)
            self.by_pos.setdefault(pos, []).append((m, e.terms))

    def normal_form(self, e: ModuleElement) -> ModuleElement:
        terms = _normal_form_terms(e.terms, self.field, self.by_pos, self.keyfn)
        return ModuleElement(e.ambient, self.field, terms)

    def contains(self, e: ModuleElement) -> bool:
        return not self.normal_form(e).terms

    def lead_terms(self):
        return sorted(
            (e.lead(self.keyfn)[0] for e in self.elements), key=lambda t: (t[0], t[1])
        )


def buchberger(gens, ambient, field, keyfn, rank1_criterion=False) -> RawBasis:
    """Reduced Groebner basis; normal (min-degree-first) pair selection.

    rank1_criterion enables Buchberger's product criterion, valid only for
    ideals (rank-one ambient).
    """
    work = [g for g in gens if not g.is_zero()]
    for g in work:
        if not g.is_homogeneous():
            raise ValueError("groebner engine requires homogeneous input")
    work.sort(key=_term_sort_key(keyfn))

    G = []  # monic elements
    leads = []  # (pos, mono)
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

    def add_elem(e):
        e = e.scale(field.inv(e.lead(keyfn)[1]))
        G.append(e)
        leads.append(e.lead(keyfn)[0])
        add_pairs(len(G) - 1)

    queue = list(work)
    qi = 0
    while qi < len(queue) or pairs:
        take_gen = qi < len(queue) and (
            not pairs or queue[qi].degree() <= pairs[0][0]
        )
        if take_gen:
            g = queue[qi]
            qi += 1
            by_pos = {}
            for e in G:
                (pos, m), _ = e.lead(keyfn)
                by_pos.setdefault(pos, []).append((m, e.terms))
            terms = _normal_form_terms(g.terms, field, by_pos, keyfn)
            if terms:
                add_elem(ModuleElement(ambient, field, terms))
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
        s = G[i].mono_shift(mono_div(L, mi), field.one) - G[j].mono_shift(
            mono_div(L, mj), field.one
        )
        by_pos = {}
        for e in G:
            (pos, m), _ = e.lead(keyfn)
            by_pos.setdefault(pos, []).append((m, e.terms))
        terms = _normal_form_terms(s.terms, field, by_pos, keyfn)
        if terms:
            add_elem(ModuleElement(ambient, field, terms))

    # interreduce to the unique reduced basis
    changed = True
    while changed:
        changed = False
        G.sort(key=_term_sort_key(keyfn))
        out = []
        for idx, e in enumerate(G):
            others = out + G[idx + 1 :]
            by_pos = {}
            for o in others:
                (pos, m), _ = o.lead(keyfn)
                by_pos.setdefault(pos, []).append((m, o.terms))
            terms = _normal_form_terms(e.terms, field, by_pos, keyfn)
            if not terms:
                changed = True
                continue
            r = ModuleElement(ambient, field, terms)
            r = r.scale(field.inv(r.lead(keyfn)[1]))
            if r.terms != e.terms:
                changed = True
            out.append(r)
        G = out
    G.sort(key=_term_sort_key(keyfn))
    return RawBasis(ambient, field, keyfn, G)


class SubmoduleGB:
    """Groebner data for a submodule given by generators.

    With syzygies=True the block computation also yields generators of the
    syzygy module of the input generators and membership certificates.
    """

    def __init__(self, gens, syzygies=False, order=GREVLEX):
        elems, ambient = _as_elements(gens)
        if not elems:
            raise ValueError("empty generating set")
        self.gens = elems
        self.ambient = ambient
        self.field = elems[0].field
        self.order = order
        self.mono_key = order.key
        self.keyfn = top_key(order.key)
        self.gen_degrees = tuple(g.degree() for g in elems)
        self.syz_ambient = FreeGradedModule(self.gen_degrees)
        self._block = None
        self._plain = None
        if syzygies:
            self._compute_block()
        else:
            self._plain = buchberger(
                elems, ambient, self.field, self.keyfn, rank1_criterion=(ambient.rank == 1)
            )

    # --- block (syzygy) computation ------------------------------------

    def _compute_block(self):
        k = self.ambient.rank
        r = len(self.gens)
        twists = self.ambient.twists + self.gen_degrees
        big = FreeGradedModule(twists)
        field = self.field
        keyfn = block_elim_key(k, self.mono_key)
        hs = []
        for i, g in enumerate(self.gens):
            terms = dict(g.terms)
            terms[(k + i, (0, 0, 0))] = field.one
            hs.append(ModuleElement(big, field, terms))
        basis = buchberger(hs, big, field, keyfn)
        gb = []
        syz = []
        for e in basis.elements:
            fpart = {t: c for t, c in e.terms.items() if t[0] < k}
            epart = {
                (p - k, m): c for (p, m), c in e.terms.items() if p >= k
            }
            if fpart:
                gb.append(
                    (
                        ModuleElement(self.ambient, field, fpart),
                        ModuleElement(self.syz_ambient, field, epart),
                    )
                )
            else:
                syz.append(ModuleElement(self.syz_ambient, field, epart))
        self._block = basis
        self._block_split = k
        self._gb_with_reps = gb
        self._syzygies = syz
        self._plain = RawBasis(
            self.ambient, self.field, self.keyfn, [g for g, _ in gb]
        )

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
        nf = self.normal_form(v)
        if isinstance(nf, Polynomial):
            return nf.is_zero()
        return nf.is_zero()

    @property
    def syzygies(self):
        if self._block is None:
            self._compute_block()
        return self._syzygies

    def representation(self, v) -> ModuleElement:
        """Cofactors a with v = sum a_i * gens_i; raises if v not a member."""
        if self._block is None:
            self._compute_block()
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
        return tuple(sorted(m for (_, m) in (e.lead(self.keyfn)[0] for e in self.basis)))

    def zero_dimensional(self) -> bool:
        """True iff V(I) is finite in P^2 (quotient Krull dim <= 1)."""
        return self._eventual_hf() is not None

    def _eventual_hf(self):
        """Eventual Hilbert function of S/I, or None if it keeps growing.

        Beyond the numerator degree the Hilbert function equals the Hilbert
        polynomial (quadratic in t); three equal consecutive values pin it
        to a constant.
        """
        v = _hilbert_polynomial_values([self.lead_monomials()])[0]
        if v[0] == v[1] == v[2]:
            return v[0]
        return None

    def colength(self) -> int:
        """Eventual Hilbert function of S/I; defined iff V(I) is finite."""
        v = self._eventual_hf()
        if v is None:
            raise ValueError("ideal does not define a finite subscheme")
        return v


def hilbert_numerator(lead_monomials):
    """Coefficients of the Hilbert series numerator of S/(monomial ideal)."""

    @lru_cache(maxsize=None)
    def rec(gens):
        if not gens:
            return (1,)
        if (0, 0, 0) in gens:
            return (0,)
        gens = _interreduce_monomials(gens)
        if len(gens) == 1:
            g = gens[0]
            d = mono_deg(g)
            out = [0] * (d + 1)
            out[0] = 1
            out[d] = -1
            return tuple(out)
        head, rest = gens[-1], gens[:-1]
        a = rec(rest)
        colon = tuple(sorted(mono_div(mono_lcm(g, head), head) for g in rest))
        b = rec(colon)
        d = mono_deg(head)
        out = list(a) + [0] * max(0, d + len(b) - len(a))
        for i, c in enumerate(b):
            out[d + i] -= c
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return tuple(out)

    return rec(_interreduce_monomials(tuple(sorted(lead_monomials))))


def _hilbert_polynomial_values(lead_sets):
    """For each monomial ideal, HF(S/in) at four consecutive degrees past
    every Hilbert numerator degree, where it agrees with the Hilbert
    polynomial; three values fix a polynomial of degree <= 2."""
    from .linalg import monomials_of_degree

    t0 = max(len(hilbert_numerator(m)) for m in lead_sets)
    return [
        [
            sum(1 for m in monomials_of_degree(t) if not any(mono_divides(g, m) for g in leads))
            for t in range(t0, t0 + 4)
        ]
        for leads in lead_sets
    ]


def _interreduce_monomials(gens):
    out = []
    for g in sorted(set(gens), key=mono_deg):
        if not any(mono_divides(h, g) for h in out):
            out.append(g)
    return tuple(sorted(out))


# --- ideal-level operations ---------------------------------------------


def groebner_basis(gens, order=GREVLEX):
    """Reduced Groebner basis of the ideal/submodule generated by gens."""
    return SubmoduleGB(gens, syzygies=False, order=order)


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
    return _prune_ideal_gens(out, [])


def _prune_ideal_gens(new, base):
    """Deterministic small generating set: base gens plus minimalized new ones."""
    from .linalg import minimal_generators
    from .modules import poly_to_element

    amb = FreeGradedModule((0,))
    elems = [poly_to_element(p, amb) for p in base + new if not p.is_zero()]
    if not elems:
        return [Polynomial.zero((base + new)[0].field)]
    kept = minimal_generators(elems)
    return [e.component(0) for e in kept]


def ideal_equal(I, J) -> bool:
    gi = groebner_basis(I)
    gj = groebner_basis(J)
    return [e.terms for e in gi.basis] == [e.terms for e in gj.basis]


def submodule_quotient(M, N):
    """Present <M>/<N> with generators M.

    Relations are the syzygies of M together with expressions of each
    element of N in terms of M; raises if some element of N is not in <M>.
    The presentation is not minimized here.
    """
    from .modules import PresentedModule

    sub = SubmoduleGB(M, syzygies=True)
    relations = list(sub.syzygies)
    for n in N:
        relations.append(sub.representation(n))
    relations = [r for r in relations if not r.is_zero()]
    return PresentedModule(sub.syz_ambient, relations)


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


def saturate(gens):
    """Generators of the saturation of I = (gens) at (x, y, z).

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
    back and returned as a minimal subset of its reduced grevlex basis.
    """
    gens = [g for g in gens if not g.is_zero()]
    field = gens[0].field
    z = Polynomial.variable(field, 2)
    gb = groebner_basis(gens)
    leads = gb.lead_monomials()
    for a, b in _line_candidates(field):
        moved = [_shear(g, field.neg(a), field.neg(b)) for g in gens]
        cut = groebner_basis(moved + [z]).lead_monomials()
        hp, hp_cut = _hilbert_polynomial_values([leads, cut])
        if any(hp_cut[i] != hp[i] - hp[i - 1] for i in (1, 2, 3)):
            continue
        moved_gb = gb if moved == gens else groebner_basis(moved)
        colon_leads = [(m[0], m[1], 0) for m in moved_gb.lead_monomials()]
        hp, hp_colon = _hilbert_polynomial_values([leads, colon_leads])
        if hp_colon != hp:
            continue
        sat = [_shear(_strip_z(e.component(0)), a, b) for e in moved_gb.basis]
        reduced = [e.component(0) for e in groebner_basis(sat).basis]
        return _prune_ideal_gens(reduced, [])
    raise InputError(
        f"no line z + a*x + b*y over GF({field.prime}) avoids the subscheme; "
        "the saturation needs a larger field"
    )
