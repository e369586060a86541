"""The analysis pipeline: from a curve or a triple of equal-degree forms to
the full invariant record (tau, exponents, second syzygy degrees, Chern
data, resolutions of the saturated ideal and of the syzygy-quotient module
N, and the Betti table of the finite-length module Q = I_sat/J).

Every Hilbert value `analyze` reads comes from a Hilbert series numerator,
through its Hilbert polynomial (`orders.hilbert_polynomial`): colengths
from the grevlex staircase, summed over its slices by powers of z
(`groebner.hilbert_numerator`), tau's cross-check from Sigma's Betti
table. AR's Betti table is held against the series J's staircase fixes,
3 - t^-s + t^-s * N_J: at t = 1 its value, slope and curvature are
m - #b = 2, the d_i less the b_j sum to d - 1, and c_2 = (d-1)^2 - tau.
With N's shape, that makes deg Z the Chern formula's. The degree-wise
linear-algebra evaluator of `linalg` runs only under `deep_checks`, as an
oracle against those tables (`verify_hilbert_consistency`).

Each ideal gets one reduced Groebner basis. J's plain run gives its basis,
staircase and normal forms, and the top degree D of AR's minimal
generators; J's syzygy run then stops at block degree D + s, where AR's
degree D sits (`groebner.syzygies`), so it forms no pair that only
matters above it. `saturate` starts from
J's basis and returns the reduced basis of the saturation Sigma, which
gives tau and Sigma's minimal generators. Reduced bases are unique, so the
free case's check that J is saturated compares the two bases.

N is presented on its minimal generators, so its presentation has no
constant entry and `minimal_resolution` resolves it as given (see
`_z_report`). Q is neither presented nor resolved: its Betti table is read
off the long exact Tor sequence of 0 -> J -> I_sat -> Q -> 0, from the
tables of J and Sigma and the ranks of the two maps from J's Tor to
Sigma's (see `_h1_report`). Only the deep checks compute Q's Koszul
homology over S/J (`koszul`), as the oracle that table must equal.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from itertools import count
from typing import Optional

from .errors import InputError, InvariantError
from .fields import PrimeField
from .groebner import SubmoduleGB, saturate, syzygies
from .koszul import quotient_betti
from .linalg import cofactors, hilbert_function, minimal_generators, rank_modulo, submodule_dim
from .modules import (
    FreeGradedModule,
    ModuleElement,
    PresentedModule,
    drop_generators,
    poly_to_element,
)
from .orders import grevlex_key, hilbert_polynomial, monomial_count
from .poly import Polynomial, partial_derivatives
from .resolution import (
    BettiTable,
    betti,
    hilbert_series,
    minimal_resolution,
    resolution_hilbert_function,
    sigma_table_reachable,
)


@dataclass(frozen=True)
class QciInput:
    mode: str  # "curve" | "triple"
    polys: tuple
    field: object
    texts: tuple = ()

    @classmethod
    def curve(cls, f: Polynomial, text: str = ""):
        return cls("curve", (f,), f.field, (text,) if text else ())

    @classmethod
    def triple(cls, f1, f2, f3, texts=()):
        return cls("triple", (f1, f2, f3), f1.field, tuple(texts))


@dataclass
class ZReport:
    z_betti: BettiTable
    is_complete_intersection: bool
    ci_type: Optional[tuple]


@dataclass
class H1Report:
    generator_count: int
    h1_betti: BettiTable


@dataclass
class QciAnalysis:
    input: QciInput
    d: int
    s: int
    tau: int
    smooth: bool
    m: Optional[int] = None
    exponents: Optional[tuple] = None
    second_syzygy_degrees: Optional[tuple] = None
    c1: Optional[int] = None
    c2: Optional[int] = None
    deg_Z: Optional[int] = None
    ar_betti: Optional[BettiTable] = None
    sigma_betti: Optional[BettiTable] = None
    z: Optional[ZReport] = None
    h1: Optional[H1Report] = None
    classification: Optional[str] = None
    sigma_is_ci: Optional[bool] = None
    sigma_cone_ok: Optional[bool] = None
    warnings: list = dc_field(default_factory=list)
    internals: dict = dc_field(default_factory=dict, repr=False)

    @property
    def d1(self):
        return self.exponents[0] if self.exponents else None


def chern_and_formulas(d: int, tau: int, d1: int) -> dict:
    """Chern data, degree of Z, and the du Plessis-Wall / tau_+ bounds."""
    if d < 3 or not (1 <= d1 <= d - 1):
        raise InputError("chern_and_formulas requires d >= 3 and 1 <= d_1 <= d-1")
    out = {
        "c1": 1 - d,
        "c2": (d - 1) ** 2 - tau,
        "deg_Z": d1 * (1 - d) + (d - 1) ** 2 - tau + d1 * d1,
        "dpw_lower": (d - 1) * (d - 1 - d1),
        "dpw_upper": (d - 1) * (d - 1 - d1) + d1 * d1,
    }
    if 2 * d1 + 1 > d:
        out["tau_plus"] = (
            (d - 1) * (d - 1 - d1)
            + d1 * d1
            - (2 * d1 + 1 - d) * (2 * d1 + 2 - d) // 2
        )
    return out


def tau_plus(d: int, d1: int) -> int:
    if 2 * d1 + 1 <= d:
        raise ValueError("tau_plus defined only in the stable range 2*d1+1 > d")
    return chern_and_formulas(d, 0, d1)["tau_plus"]


def jacobian_ideal(f: Polynomial):
    """The ideal of partial derivatives of a homogeneous form."""
    return list(partial_derivatives(f))


def _element_sort_key(e: ModuleElement):
    # the order of ar_gens: records do not depend on it, but the deep-check
    # oracle's elimination work does (unsorted, its AR sweep ran 28% slower)
    lead = max(e.terms, key=lambda t: (grevlex_key(t[1]), -t[0]))
    return (e.degree(), -lead[0], grevlex_key(lead[1]), tuple(sorted(e.terms)))


def _validate(inp: QciInput):
    field = inp.field
    if inp.mode == "curve":
        (f,) = inp.polys
        if f.is_zero() or not f.is_homogeneous():
            raise InputError("curve must be a nonzero homogeneous form")
        d = f.degree()
        if d < 3:
            raise InputError("curve degree must be at least 3")
        if isinstance(field, PrimeField) and d % field.prime == 0:
            raise InputError(
                f"characteristic {field.prime} divides the degree {d}"
            )
        return d
    fs = inp.polys
    if len(fs) != 3:
        raise InputError("triple mode needs exactly three forms")
    degs = {g.degree() for g in fs}
    if len(degs) != 1 or any(g.is_zero() or not g.is_homogeneous() for g in fs):
        raise InputError("triple must be three nonzero homogeneous forms of equal degree")
    s = fs[0].degree()
    if s < 2:
        raise InputError("triple degree must be at least 2")
    return s + 1


def analyze(inp: QciInput, deep_checks: bool = False) -> QciAnalysis:
    """Run the full pipeline; raises InputError / InvariantError."""
    d = _validate(inp)
    s = d - 1
    field = inp.field
    warnings = []
    if isinstance(field, PrimeField) and field.prime < 4 * d * d:
        warnings.append(f"small characteristic {field.prime} < 4*d^2")

    gens = jacobian_ideal(inp.polys[0]) if inp.mode == "curve" else list(inp.polys)
    # forms of one degree: minimal generators are a maximal independent subset
    if len(minimal_generators([poly_to_element(g) for g in gens])) < 3:
        raise InputError("not a valid q.c.i.: the three forms are linearly dependent")

    sub = SubmoduleGB(gens)
    gb_colength = sub.colength()
    if gb_colength is None:
        raise InputError("not a valid q.c.i.: codimension < 2")
    if gb_colength == 0:
        if inp.mode == "triple":
            raise InputError("triple has empty common zero locus")
        return QciAnalysis(
            input=inp, d=d, s=s, tau=0, smooth=True, warnings=warnings
        )

    # syzygy module AR, renormalized so that a syzygy's degree is the common
    # degree of its components (ambient twists zero). As 0 -> AR -> S^3 ->
    # S(s) -> (S/J)(s) -> 0 is exact, AR's table must have the numerator
    # 3 - t^-s + t^-s * N_J. J's syzygy run stops at its top positive
    # degree D (degree D + s in the block run), as a submodule of AR with
    # AR's series is AR; a minimal generator above D cancels a b_j, and then
    # an uncapped run's syzygies are all resolved.
    ar_series = Counter({0: 3, -s: -1})
    for a, c in sub.numerator.items():
        ar_series[a - s] += c
    ar_series = {a: c for a, c in sorted(ar_series.items()) if c}
    top = max(a for a, c in ar_series.items() if c > 0)
    amb0 = FreeGradedModule((0, 0, 0))

    def ar_generators(max_degree):
        return sorted(
            (ModuleElement(amb0, field, e.terms) for e in syzygies(sub.gens, max_degree)),
            key=_element_sort_key,
        )

    ar_gens = ar_generators(top + s)
    ar_res = minimal_resolution(ar_gens)
    if hilbert_series(betti(ar_res)) != ar_series:
        ar_gens = ar_generators(None)
        ar_res = minimal_resolution(ar_gens)
    if ar_res.length > 1:
        raise InvariantError("syzygy module resolution longer than one step")
    ar_table = betti(ar_res)
    if hilbert_series(ar_table) != ar_series:
        raise InvariantError(
            f"Hilbert series of AR {hilbert_series(ar_table)} differs from "
            f"3 - t^-s + t^-s * N_J = {ar_series}"
        )
    exponents = tuple(ar_res.modules[0].twists)
    b = tuple(ar_res.modules[1].twists) if ar_res.length >= 1 else ()
    m = len(exponents)

    # saturation and tau
    sigma_gb = saturate(sub)
    tau = sigma_gb.colength()
    if tau != gb_colength:
        raise InvariantError("eventual Hilbert values of J and its saturation differ")
    if tau < 1:
        raise InvariantError("saturation lost the subscheme")

    # J's generators come first, so each that is a minimal generator of
    # Sigma is kept as itself: they count rk phi_0 of Q's Tor sequence, and
    # the others generate Q for the Koszul oracle
    sigma_res = minimal_resolution(gens + [e.component(0) for e in sigma_gb.basis])
    sigma_gens = [e.component(0) for e in sigma_res.generators]
    sigma_betti_table = betti(sigma_res)
    sigma_is_ci = sigma_betti_table.total_at(0) == 2

    # numeric invariants
    d1 = exponents[0]
    formulas = chern_and_formulas(d, tau, d1)
    c1, c2, deg_z = formulas["c1"], formulas["c2"], formulas["deg_Z"]
    # HP(I_sigma) = binom(t+2,2) - tau, from its Betti table
    if hilbert_polynomial(hilbert_series(sigma_betti_table)) != (1, 0, -tau):
        raise InvariantError("resolution-based tau disagrees with staircase tau")

    sigma_cone_ok = sigma_table_reachable(sigma_betti_table, exponents, b, d)

    internals = {"ar_gens": ar_gens, "sigma_gens": sigma_gens}

    z = _z_report(ar_res, exponents, b, d, internals)
    if m == 2 and sigma_gb.basis != sub.basis:
        raise InvariantError("free case but the q.c.i. ideal is not saturated")
    h1 = _h1_report(sub.gens, sigma_res, ar_res.generators, exponents, b, d, m)

    from .theorems import classify as _classify

    analysis = QciAnalysis(
        input=inp,
        d=d,
        s=s,
        tau=tau,
        smooth=False,
        m=m,
        exponents=exponents,
        second_syzygy_degrees=b,
        c1=c1,
        c2=c2,
        deg_Z=deg_z,
        ar_betti=ar_table,
        sigma_betti=sigma_betti_table,
        z=z,
        h1=h1,
        sigma_is_ci=sigma_is_ci,
        sigma_cone_ok=sigma_cone_ok,
        warnings=warnings,
        internals=internals,
    )
    analysis.classification = _classify(analysis)
    if not sigma_cone_ok:
        raise InvariantError(
            "computed saturated-ideal Betti table not reachable from the mapping cone"
        )
    if deep_checks:
        _koszul_oracle(analysis.h1.h1_betti, sub, sigma_gb, sigma_gens)
        verify_hilbert_consistency(analysis)
    return analysis


def _max_twist(table: BettiTable) -> int:
    return max(a for _, a in table.entries)


def _z_report(ar_res, exponents, b, d, internals) -> ZReport:
    """Quotient of the syzygy module by its first minimal-degree generator."""
    f0 = ar_res.modules[0]
    m = f0.rank
    # drop rho_1, the generator at index 0 (the minimal generators are sorted
    # by degree): ar_res's first differential less its rho_1 row presents N
    # on rho_2..rho_m. The projection is injective, as a second syzygy with
    # only a rho_1 entry would make a_1 * rho_1 = 0, and it keeps the
    # relations minimal.
    relations = ar_res.differentials[0] if ar_res.length >= 1 else []
    n_pres = drop_generators(f0, relations, {0})
    n_res = minimal_resolution(n_pres)
    z_b = betti(n_res)
    expected = BettiTable.from_twists(
        [sorted(exponents[1:]), sorted(b)] if b else [sorted(exponents[1:])]
    )
    if z_b != expected:
        raise InvariantError(
            f"Betti table of AR/S*rho1 {z_b!r} differs from the predicted shape {expected!r}"
        )
    gens_count = z_b.total_at(0)
    is_ci = gens_count == 2
    ci_type = None
    if m == 3:
        ci_type = (
            exponents[0] + exponents[1] - d + 1,
            exponents[0] + exponents[2] - d + 1,
        )
    internals["n_pres"] = n_pres
    return ZReport(
        z_betti=z_b,
        is_complete_intersection=is_ci,
        ci_type=ci_type,
    )


_MASK = (1 << 32) - 1  # one field of `_h1_report`'s packed term keys


def _h1_report(j_gens, sigma_res, j_syz, exponents, b, d, m) -> H1Report:
    """The finite-length module Q = I_sat / J by its Betti table, read off
    the long exact Tor sequence of 0 -> J -> I_sat -> Q -> 0 (Eisenbud, *The
    Geometry of Syzygies*, GTM 229, ch. 1-2): Q gets no presentation and no
    resolution. As pd I_sat = 1 and pd J = 2, with phi_i : Tor_i(J)_j ->
    Tor_i(I_sat)_j, in each degree j

        beta_0(Q)_j = beta_0(I_sat)_j - rk phi_0
        beta_1(Q)_j = beta_1(I_sat)_j - rk phi_1 + beta_0(J)_j - rk phi_0
        beta_2(Q)_j = beta_1(J)_j - rk phi_1
        beta_3(Q)_j = beta_2(J)_j

    J has its three generators j_gens in degree s = d - 1, its minimal
    syzygies j_syz (AR's minimal generators) in the degrees d_i + s and its
    second syzygies in the b_j + s. phi_0 lives in degree s: its rank is the
    number of J's generators that stay minimal generators of I_sat
    (`analyze` selects those first, so sigma_res keeps them as themselves).
    rk phi_1 in degree d_i + s is the rank of the images of J's minimal
    syzygies of degree d_i, pushed through cofactors of the f_k over I_sat's
    minimal generators (one solve in degree s), modulo the monomial
    multiples of I_sat's lower-degree minimal syzygies.
    It is computed in every such degree: where I_sat has no minimal syzygy,
    it checks that every image lies in the module those syzygies generate.

    The table is checked against the predicted four-term shape (generators
    at 2d-2-b_j, then 2d-2-d_i, d_i+d-1, b_j+d-1), which is empty in the
    free case (m = 2), where J is saturated.
    """
    s = d - 1
    field = j_gens[0].field
    p = field.prime
    f0 = sigma_res.modules[0]
    sigma_syz = sigma_res.differentials[0]
    cof = cofactors(j_gens, sigma_res.generators)
    rk0 = sum(g in j_gens for g in sigma_res.generators)
    entries = Counter(betti(sigma_res).entries)
    entries[(0, s)] -= rk0
    entries[(1, s)] += len(j_gens) - rk0
    for bj in b:
        entries[(3, bj + s)] += 1
    # a cofactor term (pos, (u, v, w)) as one integer key, so that shifting
    # it by a monomial is one integer add; decoded once per image
    cof_terms = [
        [((pos << 96) | (u << 64) | (v << 32) | w, c) for (pos, (u, v, w)), c in cf.terms.items()]
        for cf in cof
    ]
    for di in sorted(set(exponents)):
        images = []
        for e in j_syz:
            if e.degree() == di:
                # sum over the terms c * mono * e_k of mono * c * cof[k], in
                # raw sums, taken mod p once
                acc = {}
                get = acc.get
                for (k, (u, v, w)), coef in e.terms.items():
                    shift = (u << 64) | (v << 32) | w
                    for key, coef2 in cof_terms[k]:
                        key += shift
                        acc[key] = get(key, 0) + coef * coef2
                terms = {}
                for key, c in acc.items():
                    if p:
                        c %= p
                    if c:
                        mono = ((key >> 64) & _MASK, (key >> 32) & _MASK, key & _MASK)
                        terms[(key >> 96, mono)] = c
                images.append(ModuleElement(f0, field, terms))
        j = di + s
        rk1 = rank_modulo(images, [z for z in sigma_syz if z.degree() < j], f0.twists, j)
        entries[(1, j)] -= rk1
        entries[(2, j)] += len(images) - rk1
    q_b = BettiTable(entries)
    expected = BettiTable() if m == 2 else BettiTable.from_twists(
        [
            sorted(2 * d - 2 - bj for bj in b),
            sorted(2 * d - 2 - di for di in exponents),
            sorted(di + d - 1 for di in exponents),
            sorted(bj + d - 1 for bj in b),
        ]
    )
    if q_b != expected:
        raise InvariantError(
            f"Betti table of I_sat/J {q_b!r} differs from the predicted shape {expected!r}"
        )
    return H1Report(generator_count=q_b.total_at(0), h1_betti=q_b)


def _koszul_oracle(table, j_gb, sigma_gb, sigma_gens):
    """Deep check of Q's table: Q's Betti numbers again, as the Koszul
    homology of Q inside S/J, read through the normal forms of J's Groebner
    basis j_gb (`koszul.quotient_betti`), where Q_t is spanned by the normal
    forms of I_sat's degree-t minimal generators outside J and by x, y, z
    times Q_{t-1}. Each dim Q_t is held there against J's staircase
    numerator less I_sat's."""
    j_polys = {e.component(0) for e in j_gb.gens}
    series = Counter(j_gb.numerator)
    series.subtract(sigma_gb.numerator)
    koszul = quotient_betti(
        j_gb,
        [g for g in sigma_gens if g not in j_polys],
        {a: c for a, c in series.items() if c},
    )
    if koszul != table:
        raise InvariantError(
            f"Betti table of I_sat/J {table!r} differs from its Koszul homology {koszul!r}"
        )


def _hilbert_agree(table, label, values, rhs):
    """The values, in increasing degree from 0, equal rhs(t) at every degree
    t up to three times the largest twist of the Betti table."""
    for t, a in zip(range(3 * _max_twist(table) + 1), values):
        b = rhs(t)
        if a != b:
            raise InvariantError(f"Hilbert mismatch for {label} at degree {t}: {a} != {b}")


def verify_hilbert_consistency(analysis: QciAnalysis):
    """Oracle redundancy: the degree-wise linear-algebra Hilbert evaluator
    must agree with the alternating sum of each computed Betti table at
    every degree up to three times its largest twist: S/I_sigma and N as
    presented modules, AR as the span of its generators. Q is not swept:
    its table is held against its Koszul homology (`_koszul_oracle`)."""
    internals = analysis.internals

    # S / I_sigma as a presented module
    amb1 = FreeGradedModule((0,))
    s_over_i = PresentedModule(amb1, [poly_to_element(g, amb1) for g in internals["sigma_gens"]])
    sigma_betti = analysis.sigma_betti
    _hilbert_agree(
        sigma_betti,
        "S/I_sigma",
        (hilbert_function(s_over_i, t) for t in count()),
        lambda t: monomial_count(t) - resolution_hilbert_function(sigma_betti, t),
    )

    # the syzygy submodule AR
    ar_gens = internals["ar_gens"]
    _hilbert_agree(
        analysis.ar_betti,
        "AR",
        (submodule_dim(ar_gens, ar_gens[0].ambient.twists, t) for t in count()),
        lambda t: resolution_hilbert_function(analysis.ar_betti, t),
    )

    n_betti = analysis.z.z_betti
    _hilbert_agree(
        n_betti,
        "AR/S*rho1",
        (hilbert_function(internals["n_pres"], t) for t in count()),
        lambda t: resolution_hilbert_function(n_betti, t),
    )
