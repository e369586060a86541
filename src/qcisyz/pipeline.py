"""The analysis pipeline: from a curve or a triple of equal-degree forms to
the full invariant record (tau, exponents, second syzygy degrees, Chern
data, resolutions of the saturated ideal and of the syzygy-quotient module
N, and the Betti table of the finite-length module Q = I_sat/J).

Every Hilbert value `analyze` reads comes from a Hilbert series numerator,
through its Hilbert polynomial (`orders.hilbert_polynomial`): colengths
from the grevlex staircase (`groebner.hilbert_numerator`), tau's
cross-check from Sigma's Betti table. AR's Betti table is held against the
series J's staircase fixes, 3 - t^-s + t^-s * N_J: at t = 1 its value,
slope and curvature are m - #b = 2, the d_i less the b_j sum to d - 1, and
c_2 = (d-1)^2 - tau. With N's shape, that makes deg Z the Chern formula's.
The degree-wise linear-algebra evaluator of `linalg` runs only under
`deep_checks`, as an oracle against those tables
(`verify_hilbert_consistency`).

Each ideal gets one reduced Groebner basis. The syzygy run on J yields J's
basis and its syzygies; `saturate` starts from that basis and returns the
reduced basis of the saturation Sigma, which gives tau and Sigma's minimal
generators. Reduced bases are unique, so the free case's check that J is
saturated compares the two bases.

N is presented on its minimal generators, so its presentation has no
constant entry and `minimal_resolution` resolves it as given (see
`_z_report`). Q is neither presented nor resolved: its Betti numbers are
the Koszul homology of Q inside S/J, on J's reduced basis (see
`_h1_report` and `koszul`). Only the deep checks present Q, for the
oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from itertools import count, repeat
from typing import Optional

from .errors import InputError, InvariantError
from .fields import PrimeField
from .groebner import SubmoduleGB, saturate, submodule_quotient
from .koszul import quotient_betti
from .linalg import hilbert_function, minimal_generators, submodule_dim
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

    sub = SubmoduleGB(gens, syzygies=True)
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
    # 3 - t^-s + t^-s * N_J. Only the syzygies up to its top positive degree
    # are resolved, as a submodule of AR with AR's series is AR; a minimal
    # generator above it cancels a b_j, and then all of them are resolved.
    amb0 = FreeGradedModule((0, 0, 0))
    ar_gens = sorted(
        (ModuleElement(amb0, field, dict(e.terms)) for e in sub.syzygies),
        key=_element_sort_key,
    )
    ar_series = Counter({0: 3, -s: -1})
    for a, c in sub.numerator.items():
        ar_series[a - s] += c
    ar_series = {a: c for a, c in sorted(ar_series.items()) if c}
    top = max(a for a, c in ar_series.items() if c > 0)
    ar_res = minimal_resolution([g for g in ar_gens if g.degree() <= top])
    if hilbert_series(betti(ar_res)) != ar_series:
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

    # saturation and tau; J's generators come first, so each that is a
    # minimal generator of Sigma is kept as itself: the others generate Q,
    # and the deep checks present Q on them minimally
    sigma_gb = saturate(sub)
    sigma_gens = [e.component(0) for e in minimal_generators(sub.gens + sigma_gb.basis)]
    tau = sigma_gb.colength()
    if tau != gb_colength:
        raise InvariantError("eventual Hilbert values of J and its saturation differ")
    if tau < 1:
        raise InvariantError("saturation lost the subscheme")

    sigma_res = minimal_resolution(sigma_gens)
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
    h1 = _h1_report(sigma_gens, sub, sigma_gb, exponents, b, d, m)

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
        internals["q_pres"] = submodule_quotient(sigma_gens, sub.gens) if m > 2 else None
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


def _h1_report(sigma_gens, j_gb, sigma_gb, exponents, b, d, m) -> H1Report:
    """The finite-length module Q = I_sat / J by its Betti table, the Koszul
    homology of Q over S/J (`koszul.quotient_betti`): Q gets no
    presentation and no resolution. Q_t is spanned in (S/J)_t by the normal
    forms modulo J's reduced basis (j_gb's) of I_sat's degree-t minimal
    generators outside J and by x, y, z times Q_{t-1}, and its dimension is
    checked at every degree against Q's definition: J's staircase numerator
    less I_sat's (sigma_gb's). The table is checked against the predicted
    four-term shape (generators at 2d-2-b_j, then 2d-2-d_i, d_i+d-1,
    b_j+d-1), which is empty in the free case (m = 2), where J is saturated.
    """
    j_gens = {e.component(0) for e in j_gb.gens}
    series = Counter(j_gb.numerator)
    series.subtract(sigma_gb.numerator)
    q_b = quotient_betti(
        [e.component(0) for e in j_gb.basis],
        [g for g in sigma_gens if g not in j_gens],
        {a: c for a, c in series.items() if c},
    )
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


def _presented_values(P):
    """HF(P, 0), HF(P, 1), ... of a presented module, endlessly. Once
    HF(P, t) = 0 at a degree t at or past every generator's twist, each later
    value is 0 with no elimination: there P_{t+1} = S_1 * P_t (graded
    Nakayama), so the derived zeros are the exact values."""
    top = max(P.generators.twists)
    for t in count():
        value = hilbert_function(P, t)
        yield value
        if value == 0 and t >= top:
            yield from repeat(0)


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
    every degree up to three times its largest twist. Q's is held against
    its presentation `q_pres`, which `analyze` builds only for this oracle
    (Groebner presentation and Macaulay matrices on one side, Koszul
    homology on the other).

    The presented modules S/I_sigma, N and Q are evaluated until they
    vanish at or past their largest generator twist; from there on their
    value is 0 by graded Nakayama (`_presented_values`), exactly, and is
    still compared at every degree. Q, of finite length, is the one that
    vanishes; AR never does and is eliminated at every degree."""
    internals = analysis.internals

    # S / I_sigma as a presented module
    amb1 = FreeGradedModule((0,))
    s_over_i = PresentedModule(amb1, [poly_to_element(g, amb1) for g in internals["sigma_gens"]])
    sigma_betti = analysis.sigma_betti
    _hilbert_agree(
        sigma_betti,
        "S/I_sigma",
        _presented_values(s_over_i),
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

    for pres, table, label in (
        (internals.get("n_pres"), analysis.z.z_betti, "AR/S*rho1"),
        (internals.get("q_pres"), analysis.h1.h1_betti, "I_sat/J"),
    ):
        if pres is not None:
            _hilbert_agree(
                table,
                label,
                _presented_values(pres),
                lambda t: resolution_hilbert_function(table, t),
            )
