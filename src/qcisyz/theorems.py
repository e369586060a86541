"""Instance-level verification of the structural statements T1..T16 on an
analysis record, plus the curve classification.

Each statement is checked on the computed invariants; equivalences are
checked in both directions. Violations are data, never exceptions. A failed
statement over a prime field is retried over the rationals (when the input
lifts); if the lift passes, the record is downgraded to an anomaly, which
flags a characteristic effect rather than a counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import InputError, InvariantError
from .fields import QQ, PrimeField
from .pipeline import QciInput, chern_and_formulas, tau_plus
from .poly import Polynomial
from .resolution import BettiTable

STATEMENT_IDS = tuple(f"T{i}" for i in range(1, 17))

PASS = "pass"
INAPPLICABLE = "inapplicable"
VIOLATION = "violation"
ANOMALY = "anomaly"


@dataclass
class StatementResult:
    statement_id: str
    hypothesis: bool
    holds: bool  # vacuously True when the hypothesis fails
    severity: str
    witnesses: dict = dc_field(default_factory=dict)

    def to_json(self):
        return {
            "id": self.statement_id,
            "hypothesis": self.hypothesis,
            "holds": self.holds,
            "severity": self.severity,
            "witnesses": self.witnesses,
        }


@dataclass
class TheoremReport:
    results: list

    @property
    def violations(self):
        return [r for r in self.results if r.severity == VIOLATION]

    @property
    def anomalies(self):
        return [r for r in self.results if r.severity == ANOMALY]

    def to_json(self):
        return [r.to_json() for r in self.results]


def classify(a) -> str:
    if a.m == 2:
        return "Free"
    e = a.exponents
    if a.m == 3 and e[0] + e[1] == a.d:
        if e[2] == e[1]:
            if a.deg_Z != 1:
                raise InvariantError("nearly free shape but Z is not a single point")
            return "NearlyFree"
        return "PlusOneGenerated"
    return f"General({a.m})"


def _ci_betti(p: int, q: int) -> BettiTable:
    return BettiTable.from_twists([sorted((p, q)), [p + q]])


def _z_ideal_degrees(a):
    """Generator/relation degrees of I_Z itself (the z table unshifted)."""
    k = a.exponents[0] + 1 - a.d
    gens = sorted(t + k for t in a.z.z_betti.degrees_at(0))
    rels = sorted(t + k for t in a.z.z_betti.degrees_at(1))
    return gens, rels


def _t16_shapes(d: int, d1: int):
    """The two admissible (exponents, b) patterns at tau = tau_+ - 1.

    With sigma := 2*d1 - d: either m = sigma+2 with all exponents d1, or
    m = sigma+3 with one extra exponent d1+1; in both cases the second
    syzygies sit at d1+1 except a single one at d1+2.
    """
    sigma = 2 * d1 - d
    shapes = []
    if sigma >= 1:
        shapes.append(
            (
                tuple([d1] * (sigma + 2)),
                tuple([d1 + 1] * (sigma - 1) + [d1 + 2]),
            )
        )
    shapes.append(
        (
            tuple([d1] * (sigma + 2) + [d1 + 1]),
            tuple([d1 + 1] * sigma + [d1 + 2]),
        )
    )
    return shapes


def _check_one(a, sid: str):
    """Returns (hypothesis_met, holds, witnesses) for one statement."""
    d, m, tau = a.d, a.m, a.tau
    e = a.exponents
    b = a.second_syzygy_degrees
    d1 = e[0]
    w = {"d": d, "m": m, "tau": tau, "exponents": list(e), "b": list(b)}

    if sid == "T1":
        return True, m >= 2 and (m == 2) == (len(b) == 0), w
    if sid == "T2":
        if not a.sigma_is_ci:
            return False, True, w
        return True, m <= 4, w
    if sid == "T3":
        zg, zr = _z_ideal_degrees(a)
        sg = sorted(a.sigma_betti.degrees_at(0))
        sr = sorted(a.sigma_betti.degrees_at(1))
        ok = all(g >= len(sr) for g in sg) and all(g >= len(zr) for g in zg)
        w.update(sigma_gens=sg, sigma_rels=sr, z_gens=zg, z_rels=zr)
        return True, ok, w
    if sid == "T4":
        return True, all(di <= 2 * d - 4 for di in e), w
    if sid == "T5":
        if d <= 3:
            return False, True, w
        return True, (e[-1] == 2 * d - 4) == (tau == 1), w
    if sid == "T6":
        return True, e[-1] == d - 1 or e[-1] <= 2 * d - m, w
    if sid == "T7":
        return True, all(d1 + e[i] >= d + m - 3 for i in range(1, m)), w
    if sid == "T8":
        ok = a.z.is_complete_intersection == (m == 3)
        if m == 3:
            p, q = a.z.ci_type
            zg, zr = _z_ideal_degrees(a)
            ok = ok and p * q == a.deg_Z
            ok = ok and zg == sorted((p, q)) and zr == [p + q]
            w.update(ci_type=[p, q], z_gens=zg, z_rels=zr)
        return True, ok, w
    if sid == "T9":
        if m < 3:
            return False, True, w
        return True, e[2] <= d - 1, w
    if sid == "T10":
        return True, m <= d + 1, w
    if sid == "T11":
        f = chern_and_formulas(d, tau, d1)
        lower, upper = f["dpw_lower"], f["dpw_upper"]
        w.update(dpw_lower=lower, dpw_upper=upper)
        return True, lower <= tau <= upper, w
    if sid == "T12":
        lower = chern_and_formulas(d, tau, d1)["dpw_lower"]
        shape = (
            m == 3
            and e[1] == e[2] == d - 1
            and a.sigma_betti == _ci_betti(d - 1, d - 1 - d1)
        )
        w.update(dpw_lower=lower, ci_shape=shape)
        return True, (tau == lower) == shape, w
    if sid == "T13":
        lower = chern_and_formulas(d, tau, d1)["dpw_lower"]
        shape = (
            m == 4 and sorted(e) == sorted((d1, d - 1, d - 1, d - 3 + d1))
        ) or (d1 == 1 and m == 2 and sorted(e) == [1, d - 2])
        w.update(dpw_lower=lower, shape=shape)
        if tau == lower + 1 and tau > 1:
            return True, shape, w
        if shape and tau > 1:
            # converse direction of the equivalence
            return True, tau == lower + 1, w
        return False, True, w
    if sid == "T14":
        if 2 * d1 + 1 <= d:
            return False, True, w
        tp = tau_plus(d, d1)
        w.update(tau_plus=tp)
        return True, tau <= tp, w
    if sid == "T15":
        if 2 * d1 + 1 <= d:
            return False, True, w
        tp = tau_plus(d, d1)
        mm = 2 * d1 - d + 3
        shape = (
            m == mm
            and all(di == d1 for di in e)
            and list(b) == [d1 + 1] * (mm - 2)
        )
        w.update(tau_plus=tp, expected_m=mm, shape=shape)
        return True, (tau == tp) == shape, w
    if sid == "T16":
        if 2 * d1 + 1 <= d:
            return False, True, w
        tp = tau_plus(d, d1)
        shapes = _t16_shapes(d, d1)
        shape = (tuple(e), tuple(b)) in shapes
        w.update(tau_plus=tp, shape=shape, admissible=[list(map(list, s)) for s in shapes])
        if tau == tp - 1:
            return True, shape, w
        if shape:
            return True, tau == tp - 1, w
        return False, True, w
    raise ValueError(f"unknown statement id {sid!r}")


def lift_to_rationals(inp):
    """Lift a prime-field input to the rationals via centered representatives."""
    field = inp.field
    if not isinstance(field, PrimeField):
        return None
    p = field.prime
    half = p // 2

    def lift_poly(f):
        terms = {}
        for mono, c in f.terms.items():
            c = int(c)
            terms[mono] = Fraction(c if c <= half else c - p)
        return Polynomial(QQ, terms)

    return QciInput(inp.mode, tuple(lift_poly(f) for f in inp.polys), QQ, inp.texts)


def check_all(a, statements=None, lift_retry: bool = True) -> TheoremReport:
    ids = list(statements) if statements else list(STATEMENT_IDS)
    for sid in ids:
        if sid not in STATEMENT_IDS:
            raise ValueError(f"unknown statement id {sid!r}")
    if a.smooth:
        return TheoremReport(
            [
                StatementResult(sid, False, True, INAPPLICABLE, {"smooth": True})
                for sid in ids
            ]
        )
    results = []
    lifted = None
    lifted_failed = False
    for sid in ids:
        hyp, holds, w = _check_one(a, sid)
        if not hyp:
            results.append(StatementResult(sid, False, True, INAPPLICABLE, w))
            continue
        if holds:
            results.append(StatementResult(sid, True, True, PASS, w))
            continue
        severity = VIOLATION
        if lift_retry and isinstance(a.input.field, PrimeField):
            if lifted is None and not lifted_failed:
                lifted = _try_lift_analysis(a)
                lifted_failed = lifted is None
            if lifted is not None and not lifted.smooth:
                hyp2, holds2, _ = _check_one(lifted, sid)
                if holds2:
                    severity = ANOMALY
                    w["lift"] = "statement holds over the rationals"
        results.append(StatementResult(sid, True, False, severity, w))
    return TheoremReport(results)


def _try_lift_analysis(a):
    inp = lift_to_rationals(a.input)
    if inp is None:
        return None
    from .pipeline import analyze

    try:
        return analyze(inp)
    except InputError:
        return None
