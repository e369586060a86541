from collections import Counter
from itertools import islice

import pytest

from qcisyz import groebner, linalg, pipeline
from qcisyz.catalog import builtin_catalog, catalog_entry, random_qci
from qcisyz.fields import QQ, PrimeField
from qcisyz.groebner import submodule_quotient
from qcisyz.modules import FreeGradedModule, PresentedModule, poly_to_element
from qcisyz.orders import hilbert_polynomial, top_key
from qcisyz.parsing import parse_polynomial
from qcisyz.pipeline import (
    InputError,
    InvariantError,
    QciInput,
    analyze,
    chern_and_formulas,
    jacobian_ideal,
    verify_hilbert_consistency,
)
from qcisyz.poly import Polynomial
from qcisyz.report import analysis_to_json, render_json
from qcisyz.resolution import BettiTable, betti, hilbert_series, minimal_resolution

F = PrimeField(32003)


def curve(text, field=F):
    return QciInput.curve(parse_polynomial(text, field), text)


def triple(texts, field=F):
    return QciInput.triple(*(parse_polynomial(t, field) for t in texts), texts=texts)


def test_nodal_cubic_full_record():
    a = analyze(curve("z*y^2 - x^3 - z*x^2"), deep_checks=True)
    assert (a.d, a.tau, a.m) == (3, 1, 4)
    assert a.exponents == (2, 2, 2, 2)
    assert a.second_syzygy_degrees == (3, 3)
    assert (a.c1, a.c2, a.deg_Z) == (-2, 3, 3)
    assert a.sigma_betti == BettiTable({(0, 1): 2, (1, 2): 1})
    assert a.z.z_betti == BettiTable({(0, 2): 3, (1, 3): 2})
    assert a.h1.h1_betti == BettiTable(
        {(0, 1): 2, (1, 2): 4, (2, 4): 4, (3, 5): 2}
    )
    assert a.h1.generator_count == 2
    assert a.classification == "General(4)"
    assert a.sigma_cone_ok


def test_triangle_free():
    a = analyze(curve("x*y*z"))
    assert (a.tau, a.m, a.exponents) == (3, 2, (1, 1))
    assert a.second_syzygy_degrees == ()
    assert a.classification == "Free"
    assert a.deg_Z == 0
    assert a.h1.generator_count == 0  # jacobian ideal already saturated


def test_smooth_curve_is_not_an_error():
    a = analyze(curve("x^3 + y^3 + z^3"))
    assert a.smooth and a.tau == 0
    assert a.m is None


def test_triple_mode_equals_curve_jacobian():
    f = "z*y^2 - x^3 - z*x^2"
    from qcisyz.poly import format_polynomial

    jac = [format_polynomial(g) for g in jacobian_ideal(parse_polynomial(f, F))]
    a1 = analyze(curve(f))
    a2 = analyze(triple(jac))
    assert (a1.tau, a1.exponents, a1.second_syzygy_degrees) == (
        a2.tau,
        a2.exponents,
        a2.second_syzygy_degrees,
    )


def test_curve_input_validation():
    with pytest.raises(InputError):
        analyze(curve("x^2 + y^2"))  # degree < 3
    with pytest.raises(InputError):
        analyze(curve("x^2*y"))  # non-reduced: V(J) infinite
    with pytest.raises(InputError):
        analyze(QciInput.curve(parse_polynomial("x^2 + y", F)))  # inhomogeneous


def test_linearly_dependent_forms_are_rejected_alike():
    # the same three concurrent lines in two coordinate systems: a vanishing
    # partial derivative, and two equal ones
    messages = set()
    for field in (F, QQ):
        for inp in (curve("x^3 + y^3", field), curve("(x + z)^3 + y^3", field)):
            with pytest.raises(InputError, match="linearly dependent") as exc:
                analyze(inp)
            messages.add(str(exc.value))
    assert len(messages) == 1
    for texts in (["x^2", "y^2", "x^2 + y^2"], ["x^2", "x^2", "y^2"]):
        with pytest.raises(InputError, match="linearly dependent"):
            analyze(triple(texts))


def test_triple_input_validation():
    with pytest.raises(InputError):
        analyze(triple(["x^2", "y^2", "z"]))  # unequal degrees
    with pytest.raises(InputError):
        analyze(triple(["x^2", "x*y", "x*z"]))  # codim 1
    with pytest.raises(InputError):
        analyze(triple(["x^2", "y^2", "x*y + z^2"]))  # empty zero locus


def test_characteristic_guards():
    f3 = PrimeField(3)
    with pytest.raises(InputError):
        analyze(curve("x^3 + y^3 + x*y*z", f3))  # p divides d
    f7 = PrimeField(7)
    a = analyze(curve("z*y^2 - x^3 - z*x^2", f7))
    assert any("small characteristic" in w for w in a.warnings)


def test_chern_and_formulas():
    rec = chern_and_formulas(5, 10, 3)
    assert rec == {
        "c1": -4,
        "c2": 6,
        "deg_Z": 3 * (-4) + 16 - 10 + 9,
        "dpw_lower": 4,
        "dpw_upper": 13,
        "tau_plus": 10,
    }
    # tau_plus absent outside the stable range
    assert "tau_plus" not in chern_and_formulas(5, 3, 2)
    with pytest.raises(InputError):
        chern_and_formulas(2, 0, 1)


def test_deep_checks_pass_on_catalog_examples():
    for text in ["x*y*z", "(x*z - y^2)*(x^2 - y*z)"]:
        a = analyze(curve(text), deep_checks=True)
        verify_hilbert_consistency(a)


def test_z_report_ci_detection():
    a = analyze(curve("(x^3 + y^3 + z^3)*(x + y + z)"))
    assert a.z.is_complete_intersection
    assert a.z.ci_type == (2, 2)
    assert a.deg_Z == 4
    b = analyze(curve("z*y^2 - x^3 - z*x^2"))
    assert not b.z.is_complete_intersection and b.z.ci_type is None


def test_exponents_sorted_and_invariants():
    a = analyze(curve("(x*z - y^2)*(x^2 - y*z)"))
    assert list(a.exponents) == sorted(a.exponents)
    assert sum(a.exponents) - sum(a.second_syzygy_degrees) == a.d - 1
    assert a.c2 == (a.d - 1) ** 2 - a.tau
    assert a.deg_Z == a.d1 * (1 - a.d) + (a.d - 1) ** 2 - a.tau + a.d1**2


def test_rationals_and_prime_field_agree():
    for text in ["z*y^2 - x^3 - z*x^2", "x*y*z*(x + y + z)"]:
        aq = analyze(curve(text, QQ))
        ap = analyze(curve(text, F))
        assert (aq.tau, aq.exponents, aq.second_syzygy_degrees) == (
            ap.tau,
            ap.exponents,
            ap.second_syzygy_degrees,
        )
        assert aq.sigma_betti == ap.sigma_betti


def test_default_path_runs_no_degreewise_hilbert_evaluator(monkeypatch):
    evaluator = pipeline.hilbert_function

    def refuse(*args):
        raise AssertionError("the degree-wise Hilbert evaluator ran outside deep_checks")

    monkeypatch.setattr(pipeline, "hilbert_function", refuse)
    a = analyze(catalog_entry("lines-4").input_over(QQ))
    assert (a.tau, a.deg_Z) == (6, 1)
    for x in (a, analyze(random_qci(3, F, 0))):
        # N = I_Z(d1 - s): S/I_Z has the numerator 1 - t^(d1-s) * num(N)
        num = Counter({0: 1})
        for deg, c in hilbert_series(x.z.z_betti).items():
            num[deg + x.d1 - x.s] -= c
        assert hilbert_polynomial(num) == (0, 0, x.deg_Z)

    calls = []

    def counting(*args):
        calls.append(args)
        return evaluator(*args)

    monkeypatch.setattr(pipeline, "hilbert_function", counting)
    analyze(curve("z*y^2 - x^3 - z*x^2"), deep_checks=True)
    assert calls


def test_oracle_values_equal_the_evaluator_at_every_degree(monkeypatch):
    """The oracle sweeps S/I_sigma, AR and N, not Q: the values it compares
    for the two presented modules are hilbert_function's at every degree up
    to three times the largest twist, one evaluation per degree."""
    real = pipeline._hilbert_agree
    seen, calls = {}, Counter()

    def recording(table, label, values, rhs):
        seen[label] = list(islice(values, 3 * pipeline._max_twist(table) + 1))
        real(table, label, seen[label], rhs)

    def counting(P, t):
        calls[id(P)] += 1
        return linalg.hilbert_function(P, t)

    monkeypatch.setattr(pipeline, "_hilbert_agree", recording)
    monkeypatch.setattr(pipeline, "hilbert_function", counting)
    amb = FreeGradedModule((0,))
    for inp in (
        catalog_entry("nodal-quartic").input_over(F),
        catalog_entry("lines-4").input_over(F),
        random_qci(3, F, 0),
    ):
        seen.clear()
        calls.clear()
        a = analyze(inp, deep_checks=True)
        assert set(seen) == {"S/I_sigma", "AR", "AR/S*rho1"}
        s_over_i = PresentedModule(amb, [poly_to_element(g, amb) for g in a.internals["sigma_gens"]])
        for label, pres in (("S/I_sigma", s_over_i), ("AR/S*rho1", a.internals["n_pres"])):
            values = seen[label]
            assert values == [linalg.hilbert_function(pres, t) for t in range(len(values))]
        assert sorted(calls.values()) == sorted(len(seen[k]) for k in ("S/I_sigma", "AR/S*rho1"))


def test_oracle_refuses_a_table_wrong_where_q_has_vanished(monkeypatch):
    """An extra generator of Q's table at its largest twist T, where Q has
    vanished, gets past the shape check (made on the table before the extra
    entry) and is refused by the Koszul oracle of the deep checks."""
    real = pipeline._h1_report
    tops = []

    def extra_generator(*args):
        h1 = real(*args)
        tops.append(pipeline._max_twist(h1.h1_betti))
        entries = Counter(h1.h1_betti.entries)
        entries[(0, tops[-1])] += 1
        h1.h1_betti = BettiTable(entries)
        return h1

    monkeypatch.setattr(pipeline, "_h1_report", extra_generator)
    inp = curve("z*y^2 - x^3 - z*x^2")
    assert analyze(inp).h1.h1_betti.entries[(0, tops[-1])] == 1
    with pytest.raises(InvariantError, match="I_sat/J .* differs from its Koszul homology"):
        analyze(inp, deep_checks=True)


def test_analyze_computes_each_reduced_basis_once(monkeypatch):
    """No Buchberger run without syzygies returns a reduced basis that an
    earlier run of the same `analyze` produced; a syzygy run counts by its
    F-part, the basis of the submodule itself. Saturation's probes I' + (z)
    are left out: two lines can cut out the same ideal."""
    real = groebner.buchberger
    runs = []

    def recording(gens, ambient, field, keyfn):
        basis = real(gens, ambient, field, keyfn)
        plain = keyfn is top_key
        split = ambient.rank if plain else ambient.rank - len(gens)
        fparts = (frozenset((t, c) for t, c in e.terms.items() if t[0] < split) for e in basis.elements)
        runs.append((plain, (ambient.twists[:split], tuple(f for f in fparts if f))))
        return basis

    monkeypatch.setattr(groebner, "buchberger", recording)
    z = frozenset({((0, (0, 0, 1)), 1)})
    for inp in (catalog_entry("lines-4").input_over(QQ), random_qci(5, F, 0)):
        runs.clear()
        analyze(inp)
        for i, (plain, key) in enumerate(runs):
            if plain and z not in key[1]:
                assert key not in [k for _, k in runs[:i]], f"run {i} repeats an earlier basis"


def _presentation_inputs():
    for entry in builtin_catalog():
        for field in (F, QQ):
            yield entry.input_over(field)
    for s in (2, 3, 4):
        for seed in range(3):
            yield random_qci(s, F, seed)


@pytest.mark.parametrize("name", ["lines-4", "lines-6", "cubic-plus-line"])
def test_a_wrongly_accepted_line_is_caught_by_the_tau_check(name, monkeypatch):
    # z = 0 meets the singular points, so the cut test rejects it; forced to
    # accept it, saturate returns I : z^inf, which has lost those points
    inp = catalog_entry(name).input_over(QQ)
    J = jacobian_ideal(inp.polys[0])
    assert groebner._line_cut(J, QQ.zero, QQ.zero) != (0, 0, 0)
    monkeypatch.setattr(groebner, "_line_cut", lambda gens, a, b: (0, 0, 0))
    with pytest.raises(InvariantError, match="eventual Hilbert values of J and its saturation differ"):
        analyze(inp)


def test_n_and_q_are_presented_minimally(monkeypatch):
    """N on rho_2..rho_m: no relation has a constant entry, and the
    generators are as many as the first column of the Betti table. Q is
    presented nowhere, not even for the deep checks' oracle, whose degree
    sweep this test leaves out."""
    monkeypatch.setattr(pipeline, "verify_hilbert_consistency", lambda analysis: None)
    for inp in _presentation_inputs():
        a = analyze(inp, deep_checks=True)
        pres = a.internals["n_pres"]
        assert all(sum(m) > 0 for r in pres.relations for _, m in r.terms)
        assert pres.generators.rank == a.z.z_betti.total_at(0)
        assert "q_pres" not in a.internals


def _j_generators(inp):
    gens = jacobian_ideal(inp.polys[0]) if inp.mode == "curve" else inp.polys
    return [poly_to_element(g) for g in gens]


_Q_SOURCES = [(entry.name, field) for entry in builtin_catalog() for field in (F, QQ)] + [
    (s, seed) for s in (2, 3, 4, 5) for seed in range(3)
]


@pytest.mark.parametrize(
    "first, second",
    _Q_SOURCES,
    ids=[f"{a}-{b!r}" if isinstance(a, str) else f"random-s{a}-seed{b}" for a, b in _Q_SOURCES],
)
def test_koszul_table_of_q_equals_its_resolution(first, second):
    """Q's Betti table by Koszul homology over S/J is the Betti table of a
    minimal resolution of its presentation; empty when J is saturated (the
    triangle is free). first, second: a catalog curve and its field, or a
    random triple's degree and seed."""
    if isinstance(first, str):
        inp = catalog_entry(first).input_over(second)
    else:
        inp = random_qci(first, F, second)
    a = analyze(inp)
    q_pres = submodule_quotient(a.internals["sigma_gens"], _j_generators(inp))
    assert a.h1.h1_betti == betti(minimal_resolution(q_pres))
    assert (a.m == 2) == (not a.h1.h1_betti.entries)


def test_q_gets_no_presentation_and_no_resolution_by_default(monkeypatch):
    """The default path resolves AR, Sigma and N once each, and neither
    presents Q nor computes its Koszul homology; the deep checks add one
    Koszul table of Q, its oracle, and still no presentation. On every
    catalog curve, over both fields, AR's syzygies up to the top positive
    degree of the series J's staircase fixes generate AR: the full rerun
    never fires."""
    calls = Counter()

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(groebner, "submodule_quotient")
    counting(pipeline, "quotient_betti")
    counting(pipeline, "minimal_resolution")
    for entry in builtin_catalog():
        for field in (F, QQ):
            calls.clear()
            analyze(entry.input_over(field))
            assert calls == {"minimal_resolution": 3}, (entry.name, field)
    calls.clear()
    analyze(curve("z*y^2 - x^3 - z*x^2"), deep_checks=True)
    assert calls == {"minimal_resolution": 3, "quotient_betti": 1}


def _tor_ranks(a):
    """rk phi_0 and the sum over degrees of rk phi_1 in Q's Tor sequence,
    read back from the tables: beta_0(Q)_s = beta_0(I_sat)_s - rk phi_0 and
    the beta_2(Q)_j sum to m less the ranks of phi_1."""
    rk0 = a.sigma_betti.entries[(0, a.s)] - a.h1.h1_betti.entries[(0, a.s)]
    return rk0, a.m - a.h1.h1_betti.total_at(2)


def _tor_inputs(field):
    for entry in builtin_catalog():
        if not (field.kind == "fp" and field.prime == 7 and entry.name == "lines-6"):
            yield entry.name, entry.input_over(field)  # over GF(7) every line meets lines-6's nodes
    for s in (2, 3) if field is QQ else (2, 3, 4, 5):
        for seed in (0, 1):
            yield f"s{s}-seed{seed}", random_qci(s, field, seed)


@pytest.mark.parametrize("field", [PrimeField(7), F, QQ], ids=["GF7", "GF32003", "QQ"])
def test_tor_sequence_table_equals_the_koszul_table(field, monkeypatch):
    """Q's table off the long exact Tor sequence equals its Koszul homology
    over S/J, on the catalog and on random draws, with rk phi_0 in {0, 1, 3}
    (cubic-plus-line gives 1, the line arrangements 3) and, on the free
    triangle, rk phi_0 = 3 and rk phi_1 = 2, where Q = 0."""
    monkeypatch.setattr(pipeline, "verify_hilbert_consistency", lambda analysis: None)
    real = pipeline.quotient_betti
    koszul = []

    def recording(*args):
        koszul.append(real(*args))
        return koszul[-1]

    monkeypatch.setattr(pipeline, "quotient_betti", recording)
    ranks = {}
    for name, inp in _tor_inputs(field):
        koszul.clear()
        a = analyze(inp, deep_checks=True)
        assert koszul == [a.h1.h1_betti], name
        ranks[name] = _tor_ranks(a)
    assert {rk0 for rk0, _ in ranks.values()} >= {0, 1, 3}
    assert ranks["triangle"] == (3, 2)


@pytest.mark.parametrize("name", ["nodal-cubic", "cubic-plus-line", "lines-5"])
def test_a_lost_sigma_syzygy_fails_the_q_shape(name, monkeypatch, capsys):
    """With one minimal syzygy of Sigma too few, some image of J's syzygies
    falls outside the module the rest generate: rk phi_1 > 0 breaks Q's
    four-term shape, and the CLI exits 3."""
    from qcisyz import cli

    real = pipeline.minimal_resolution

    def short(X):
        res = real(X)
        if isinstance(X, list) and isinstance(X[0], Polynomial):  # Sigma's
            res.differentials[0] = res.differentials[0][:-1]
        return res

    monkeypatch.setattr(pipeline, "minimal_resolution", short)
    inp = catalog_entry(name)
    with pytest.raises(InvariantError, match="Betti table of I_sat/J .* differs from the predicted shape"):
        analyze(inp.input_over(F))
    assert cli.main(["analyze", "--curve", inp.texts[0]]) == 3
    assert "differs from the predicted shape" in capsys.readouterr().err


class _LosingLowestSyzygy(groebner.SubmoduleGB):
    """J's syzygy run less its lowest-degree syzygy, which is a minimal
    generator of AR: the rest generate a proper submodule."""

    def __init__(self, gens, syzygies=False):
        super().__init__(gens, syzygies)
        lowest = min(self.syzygies, key=lambda e: e.degree())
        self.syzygies = [e for e in self.syzygies if e is not lowest]


def test_a_lost_minimal_syzygy_fails_the_hilbert_series_identity(monkeypatch, capsys):
    from qcisyz import cli

    monkeypatch.setattr(pipeline, "SubmoduleGB", _LosingLowestSyzygy)
    inp = catalog_entry("lines-5")
    with pytest.raises(InvariantError, match="Hilbert series of AR .* differs from 3 - t"):
        analyze(inp.input_over(F))
    assert cli.main(["analyze", "--curve", inp.texts[0]]) == 3
    assert "Hilbert series of AR" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["nodal-cubic", "two-conics", "lines-5"])
def test_a_cut_set_that_falls_short_is_resolved_whole(name, monkeypatch):
    """Forced fallback: the first resolution loses its top minimal
    generator, so its table fails J's series and all of AR's syzygies are
    resolved again. The record is unchanged, at one more resolution."""
    inp = catalog_entry(name).input_over(F)
    record = render_json(analysis_to_json(analyze(inp)))
    real = pipeline.minimal_resolution
    calls = []

    def short_first(gens):
        calls.append(gens)
        if len(calls) == 1:
            gens = linalg.minimal_generators(gens)[:-1]
        return real(gens)

    monkeypatch.setattr(pipeline, "minimal_resolution", short_first)
    assert render_json(analysis_to_json(analyze(inp))) == record
    assert len(calls) == 4


def test_q_is_checked_against_the_staircases(monkeypatch):
    """Under the deep checks, each dimension of Q in its Koszul oracle is
    held against J's staircase numerator less Sigma's: a shifted numerator
    is refused. The default path computes no Koszul table to shift."""
    real = pipeline.quotient_betti

    def shifted(j_gb, gens, numerator):
        return real(j_gb, gens, {a + 1: c for a, c in numerator.items()})

    monkeypatch.setattr(pipeline, "quotient_betti", shifted)
    analyze(curve("z*y^2 - x^3 - z*x^2"))
    with pytest.raises(pipeline.InvariantError, match="staircases"):
        analyze(curve("z*y^2 - x^3 - z*x^2"), deep_checks=True)
