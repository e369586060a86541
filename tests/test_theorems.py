import copy

import pytest

from qcisyz.errors import InputError, InvariantError
from qcisyz.fields import QQ, PrimeField
from qcisyz.parsing import parse_polynomial
from qcisyz.pipeline import QciInput, analyze
from qcisyz.theorems import (
    STATEMENT_IDS,
    check_all,
    classify,
    lift_to_rationals,
)

F = PrimeField(32003)


def analyzed(text, field=F):
    return analyze(QciInput.curve(parse_polynomial(text, field), text))


def by_id(report):
    return {r.statement_id: r for r in report.results}


def test_all_statements_covered():
    rep = check_all(analyzed("z*y^2 - x^3 - z*x^2"))
    assert [r.statement_id for r in rep.results] == list(STATEMENT_IDS)
    assert not rep.violations and not rep.anomalies


def test_statement_filter():
    rep = check_all(analyzed("x*y*z"), statements=("T4", "T11"))
    assert [r.statement_id for r in rep.results] == ["T4", "T11"]
    with pytest.raises(ValueError):
        check_all(analyzed("x*y*z"), statements=("T99",))


def test_nodal_cubic_t15_fires():
    a = analyzed("z*y^2 - x^3 - z*x^2")
    r = by_id(check_all(a))["T15"]
    # d=3, d1=2: stable range, tau = tau_+ = 1, extremal shape with m=4
    assert r.hypothesis and r.holds
    assert r.witnesses["tau_plus"] == 1 and r.witnesses["expected_m"] == 4
    assert r.witnesses["shape"] is True


def test_cubic_plus_line_t12_extremal():
    a = analyzed("(x^3 + y^3 + z^3)*(x + y + z)")
    r = by_id(check_all(a))["T12"]
    assert r.hypothesis and r.holds
    assert a.tau == r.witnesses["dpw_lower"] == 3
    assert r.witnesses["ci_shape"] is True


def test_triangle_attains_upper_bound():
    a = analyzed("x*y*z")
    r = by_id(check_all(a))["T11"]
    assert r.holds and a.tau == r.witnesses["dpw_upper"] == 3
    assert by_id(check_all(a))["T1"].holds and a.m == 2


def test_two_conics_t13_fires():
    a = analyzed("(x*z - y^2)*(x^2 - y*z)")
    r = by_id(check_all(a))["T13"]
    # tau = 4 = dpw_lower + 1 with d1 = 2: the m=4 shape must appear
    assert r.hypothesis and r.holds and r.witnesses["shape"] is True


def test_two_node_quartic_t16_fires():
    a = analyzed("x^2*y^2 + x^2*z^2 + y^2*z^2 + x*y*z^2 + z^4")
    r = by_id(check_all(a))["T16"]
    assert r.hypothesis and r.holds
    assert a.tau == r.witnesses["tau_plus"] - 1


def test_smooth_analysis_reports_inapplicable():
    rep = check_all(analyzed("x^3 + y^3 + z^3"))
    assert all(r.severity == "inapplicable" for r in rep.results)


def test_corrupted_analysis_yields_violation():
    a = analyzed("z*y^2 - x^3 - z*x^2")
    bad = copy.copy(a)
    bad.m = 2  # claims free, yet second syzygies are recorded: breaks T1
    rep = check_all(bad, statements=("T1",), lift_retry=False)
    assert rep.violations and rep.violations[0].statement_id == "T1"


def test_biconditionals_detect_false_converse():
    a = analyzed("(x^3 + y^3 + z^3)*(x + y + z)")
    bad = copy.copy(a)
    bad.tau = a.tau + 1  # shape still claims the extremal case
    rep = check_all(bad, statements=("T12",), lift_retry=False)
    assert rep.violations


def test_lift_to_rationals():
    a = analyzed("z*y^2 - x^3 - z*x^2")
    lifted = lift_to_rationals(a.input)
    assert lifted.field is QQ
    from qcisyz.poly import format_polynomial

    assert format_polynomial(lifted.polys[0]) == "-x^3 - x^2*z + y^2*z"
    assert lift_to_rationals(analyzed("x*y*z", QQ).input) is None


def test_anomaly_downgrade_on_lift():
    # corrupt a prime-field analysis in a way the rational lift satisfies:
    # impossible to fake through a real pipeline run here, so emulate by
    # checking the severity plumbing directly on a T10 violation with a
    # valid lift; the lift passes T10 so the record downgrades to anomaly
    a = analyzed("z*y^2 - x^3 - z*x^2")
    bad = copy.copy(a)
    bad.m = a.d + 2
    rep = check_all(bad, statements=("T10",), lift_retry=True)
    assert rep.anomalies and not rep.violations


def test_lift_retry_swallows_only_input_errors(monkeypatch):
    import qcisyz.pipeline as pipeline

    a = analyzed("z*y^2 - x^3 - z*x^2")
    bad = copy.copy(a)
    bad.m = a.d + 2

    def invalid(inp):
        raise InputError("triple has empty common zero locus")

    monkeypatch.setattr(pipeline, "analyze", invalid)
    rep = check_all(bad, statements=("T10",), lift_retry=True)
    assert rep.violations and not rep.anomalies

    def broken(inp):
        raise InvariantError("syzygy module resolution longer than one step")

    monkeypatch.setattr(pipeline, "analyze", broken)
    with pytest.raises(InvariantError):
        check_all(bad, statements=("T10",), lift_retry=True)


def test_nearly_free_shape_needs_a_single_point():
    bad = copy.copy(analyzed("x*y*z*(x + y + z)"))
    bad.deg_Z = 2
    with pytest.raises(InvariantError, match="nearly free"):
        classify(bad)


def test_classification_labels():
    assert classify(analyzed("x*y*z")) == "Free"
    assert classify(analyzed("x*y*z*(x + y + z)")) == "NearlyFree"
    assert classify(analyzed("(x^3 + y^3 + z^3)*(x + y + z)")) == "General(3)"
    assert classify(analyzed("z*y^2 - x^3 - z*x^2")) == "General(4)"


def test_plus_one_generated_label():
    # a curve with m=3, d1+d2=d, d3 > d2 is plus-one-generated; a conic
    # pencil degeneration provides one: look for it among small examples
    a = analyzed("y^2*z^2 - x^4 - x^3*z")
    if a.m == 3 and a.exponents[0] + a.exponents[1] == a.d and a.exponents[2] != a.exponents[1]:
        assert a.classification == "PlusOneGenerated"
    else:
        pytest.skip("example not plus-one-generated; label covered elsewhere")
