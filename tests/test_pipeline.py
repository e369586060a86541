from collections import Counter

import pytest

from qcisyz import groebner, pipeline
from qcisyz.catalog import builtin_catalog, catalog_entry, random_qci
from qcisyz.fields import QQ, PrimeField
from qcisyz.groebner import submodule_quotient
from qcisyz.modules import poly_to_element
from qcisyz.orders import top_key
from qcisyz.parsing import parse_polynomial
from qcisyz.pipeline import (
    InputError,
    QciInput,
    analyze,
    c2_from_exponents,
    chern_and_formulas,
    jacobian_ideal,
    verify_hilbert_consistency,
)
from qcisyz.resolution import BettiTable, betti, minimal_resolution

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


def test_c2_from_exponents_matches_chern():
    # nodal cubic data
    assert c2_from_exponents((2, 2, 2, 2), (3, 3)) == 3
    # two conics
    assert c2_from_exponents((2, 3, 3, 3), (4, 4)) == 5


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
    assert (a.tau, a.deg_Z, a.z.deg_Z) == (6, 1, 1)
    b = analyze(random_qci(3, F, 0))
    assert b.z.deg_Z == b.deg_Z

    calls = []

    def counting(*args):
        calls.append(args)
        return evaluator(*args)

    monkeypatch.setattr(pipeline, "hilbert_function", counting)
    analyze(curve("z*y^2 - x^3 - z*x^2"), deep_checks=True)
    assert calls


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


def test_n_and_q_are_presented_minimally(monkeypatch):
    """N on rho_2..rho_m and Q on Sigma's minimal generators outside J: no
    relation has a constant entry, and the generators are as many as the
    first column of the Betti table. Q is presented only for the deep
    checks' oracle, whose degree sweep this test leaves out."""
    monkeypatch.setattr(pipeline, "verify_hilbert_consistency", lambda analysis: None)
    for inp in _presentation_inputs():
        a = analyze(inp, deep_checks=True)
        for pres, table in (
            (a.internals["n_pres"], a.z.z_betti),
            (a.internals["q_pres"], a.h1.h1_betti),
        ):
            if pres is None:  # Q in the free case
                assert a.m == 2 and table.total_at(0) == 0
                continue
            assert all(sum(m) > 0 for r in pres.relations for _, m in r.terms)
            assert pres.generators.rank == table.total_at(0)


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
    """The default path resolves AR, Sigma and N and never presents Q;
    only the deep checks' oracle presents it."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(pipeline, name, wrapper)

    counting("submodule_quotient", pipeline.submodule_quotient)
    counting("minimal_resolution", pipeline.minimal_resolution)
    analyze(curve("z*y^2 - x^3 - z*x^2"))
    assert calls == {"minimal_resolution": 3}
    calls.clear()
    analyze(curve("z*y^2 - x^3 - z*x^2"), deep_checks=True)
    assert calls == {"minimal_resolution": 3, "submodule_quotient": 1}


def test_q_is_checked_against_the_staircases(monkeypatch):
    """Each dimension of Q is held against J's staircase numerator less
    Sigma's: a shifted numerator is refused."""
    real = pipeline.quotient_betti

    def shifted(basis, gens, numerator):
        return real(basis, gens, {a + 1: c for a, c in numerator.items()})

    monkeypatch.setattr(pipeline, "quotient_betti", shifted)
    with pytest.raises(pipeline.InvariantError, match="staircases"):
        analyze(curve("z*y^2 - x^3 - z*x^2"))
