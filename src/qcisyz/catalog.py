"""Named example inputs with frozen expected invariants, a random
quasi-complete-intersection generator, and the extremal-tau search.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from . import linalg
from .fields import DEFAULT_PRIME, PrimeField
from .groebner import groebner_basis
from .linalg import monomials_of_degree
from .orders import mono_mul
from .parsing import parse_polynomial
from .pipeline import InputError, QciInput, analyze, chern_and_formulas
from .poly import Polynomial


@dataclass
class CatalogEntry:
    name: str
    mode: str
    texts: tuple
    expected: dict

    def input_over(self, field) -> QciInput:
        polys = tuple(parse_polynomial(t, field) for t in self.texts)
        if self.mode == "curve":
            return QciInput.curve(polys[0], self.texts[0])
        return QciInput.triple(*polys, texts=self.texts)

    def verify(self, field=None) -> dict:
        """analyze() the entry and compare against the frozen record.

        Returns a dict of mismatches, empty when everything agrees.
        """
        field = field or PrimeField(DEFAULT_PRIME)
        a = analyze(self.input_over(field))
        got = {
            "tau": a.tau,
            "m": a.m,
            "exponents": list(a.exponents),
            "b": list(a.second_syzygy_degrees),
            "deg_Z": a.deg_Z,
            "classification": a.classification,
            "sigma_betti": a.sigma_betti.to_json(),
            "ar_betti": a.ar_betti.to_json(),
            "z_betti": a.z.z_betti.to_json(),
            "h1_betti": a.h1.h1_betti.to_json(),
        }
        return {
            k: {"expected": v, "got": got[k]}
            for k, v in self.expected.items()
            if got.get(k) != v
        }


def builtin_catalog() -> list:
    """The frozen example suite; expected values were generated over the
    rationals and must be reproduced over any valid prime field."""
    text = resources.files("qcisyz.data").joinpath("catalog.json").read_text()
    return [CatalogEntry(**e) for e in json.loads(text)]


def catalog_entry(name: str) -> CatalogEntry:
    for e in builtin_catalog():
        if e.name == name:
            return e
    raise KeyError(f"no catalog entry named {name!r}")


# --- random generators ------------------------------------------------


def random_form(field, deg: int, rng: random.Random) -> Polynomial:
    terms = {}
    for mono in monomials_of_degree(deg):
        c = field.random(rng)
        if c != field.zero:
            terms[mono] = c
    return Polynomial(field, terms)


def random_nonzero_form(field, deg: int, rng: random.Random) -> Polynomial:
    while True:
        f = random_form(field, deg, rng)
        if not f.is_zero():
            return f


RANDOM_QCI_DRAWS = 200  # triples drawn before random_qci gives up


def random_qci(s: int, field, seed: int) -> QciInput:
    """Three random degree-s forms with finite, nonempty common zeros.

    A generic triple has empty common zero locus, so the triple is drawn
    inside the ideal of a random regular sequence pair (g, h) with
    deg g + deg h = s: F_i = a_i*g + b_i*h. The common zeros then contain
    V(g, h) and are generically finite; failures are resampled.
    """
    if s < 2:
        raise ValueError("triple degree must be at least 2")
    rng = random.Random(seed)
    for _ in range(RANDOM_QCI_DRAWS):
        dg = rng.randint(1, s - 1)
        dh = rng.randint(1, s - dg)
        g = random_nonzero_form(field, dg, rng)
        h = random_nonzero_form(field, dh, rng)
        fs = tuple(
            random_nonzero_form(field, s - dg, rng) * g
            + random_nonzero_form(field, s - dh, rng) * h
            for _ in range(3)
        )
        if any(f.is_zero() or f.degree() != s for f in fs):
            continue
        if not groebner_basis(list(fs)).colength():  # V infinite (None) or empty (0)
            continue
        return QciInput.triple(*fs)
    raise RuntimeError(f"no valid triple within {RANDOM_QCI_DRAWS} draws (s={s}, seed={seed})")


# --- extremal-tau search ----------------------------------------------


def _kernel_basis_in_degree(cols, m: int, field, deg: int):
    """Basis of {v in (S^m)_deg : v . c = 0 for every column c}.

    cols are vectors of linear forms (length-m tuples of Polynomial). Each
    domain monomial's row of the transposed multiplication map is reduced
    with an identity augmentation; a row whose left part reduces to zero
    yields the kernel vector in its right part, any other row is kept. The
    echelon is made through `linalg.make_echelon`, looked up at each call,
    so that a wrapper on it sees this echelon too.
    """
    dom = [(i, mono) for i in range(m) for mono in monomials_of_degree(deg)]
    codom_monos = monomials_of_degree(deg + 1)
    codom_index = {mono: k for k, mono in enumerate(codom_monos)}
    width = len(cols) * len(codom_monos)
    ech = linalg.make_echelon(field, width + len(dom))
    out = []
    for r, (i, mono) in enumerate(dom):
        vec = [field.zero] * (width + len(dom))
        vec[width + r] = field.one
        for j, col in enumerate(cols):
            for cm, cc in col[i].terms.items():
                k = j * len(codom_monos) + codom_index[mono_mul(mono, cm)]
                vec[k] = field.add(vec[k], cc)
        v = ech.reduce(vec)
        if any(v[:width]):
            ech.insert(v)
            continue
        combo = v[width:]
        if isinstance(field, PrimeField):
            combo = [int(c) for c in combo]
        comps = [{} for _ in range(m)]
        for (ci, cmono), c in zip(dom, combo):
            if c != field.zero:
                comps[ci][cmono] = c
        out.append(tuple(Polynomial(field, t) for t in comps))
    return out


def search_tau_plus(
    d: int, d1: int, budget: int = 50, seed: int = 0, field=None
) -> Optional[QciInput]:
    """Search for a triple of type (d-1, d-1, d-1) whose analysis attains
    tau = tau_+ with smallest exponent d1.

    Strategy: the extremal syzygy module is presented by a generic
    (m-2) x m matrix of linear forms with m = 2*d1-d+3. Draw such a
    matrix, compute three random degree-d1 vectors in the kernel of its
    transpose, and recover the triple as the rank-one syzygy of those
    three vectors. Hits are verified by a full analysis; absence within
    the budget returns None.
    """
    if d < 3 or not (2 * d1 + 1 > d and d1 <= d - 1):
        raise InputError("search requires d >= 3 and d/2 <= d1 <= d-1")
    field = field or PrimeField(DEFAULT_PRIME)
    target = chern_and_formulas(d, 0, d1)["tau_plus"]
    m = 2 * d1 - d + 3
    s = d - 1
    rng = random.Random(seed)
    from .theorems import check_all

    for _ in range(budget):
        cols = [
            tuple(random_form(field, 1, rng) for _ in range(m))
            for _ in range(m - 2)
        ]
        kernel = _kernel_basis_in_degree(cols, m, field, d1)
        if len(kernel) < 3:
            continue
        rows = []
        for _ in range(3):
            vec = [Polynomial.zero(field) for _ in range(m)]
            for kv in kernel:
                c = field.random(rng)
                for i in range(m):
                    vec[i] = vec[i] + kv[i].scale(c)
            rows.append(vec)
        triple = _triple_from_kernel_rows(rows, m, field, s)
        if triple is None:
            continue
        inp = QciInput.triple(*triple)
        try:
            a = analyze(inp)
        except InputError:
            continue
        if a.smooth or a.tau != target or a.exponents[0] != d1:
            continue
        rep = check_all(a, statements=("T14", "T15"), lift_retry=False)
        if any(r.severity != "pass" for r in rep.results if r.hypothesis):
            continue
        return inp
    return None


def _triple_from_kernel_rows(rows, m: int, field, s: int):
    """The degree-s syzygy of three length-m form vectors, if unique."""
    from .groebner import syzygies
    from .modules import FreeGradedModule, ModuleElement

    amb = FreeGradedModule((0,) * m)
    elems = [ModuleElement.from_components(amb, field, row) for row in rows]
    if any(e.is_zero() for e in elems):
        return None
    syz = syzygies(elems)
    # syzygy degrees include the generator degree of the rows
    cands = [e for e in syz if e.degree() == s + elems[0].degree()]
    if len(cands) != 1:
        return None
    e = cands[0]
    triple = tuple(e.component(i) for i in range(3))
    if any(f.is_zero() or f.degree() != s for f in triple):
        return None
    return triple
