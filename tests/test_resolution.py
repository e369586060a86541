import random

import pytest

from qcisyz.catalog import builtin_catalog, random_qci
from qcisyz.fields import QQ, PrimeField
from qcisyz.groebner import groebner_basis, saturate, syzygies
from qcisyz.linalg import hilbert_function
from qcisyz.modules import FreeGradedModule, ModuleElement, PresentedModule, poly_to_element
from qcisyz.parsing import parse_polynomial
from qcisyz.pipeline import analyze
from qcisyz.poly import partial_derivatives
from qcisyz.report import analysis_to_json, render_json
from qcisyz.resolution import (
    BettiTable,
    ResolutionError,
    _independent_somewhere,
    betti,
    minimal_resolution,
    predicted_sigma_tables,
    resolution_hilbert_function,
    sigma_table_reachable,
)

F = PrimeField(32003)


def saturated_jacobian(f):
    """The reduced basis of the saturated jacobian ideal of f."""
    return saturate(groebner_basis(list(partial_derivatives(f)))).basis


def polys(texts, field=F):
    return [parse_polynomial(t, field) for t in texts]


def test_koszul_resolution():
    res = minimal_resolution(polys(["x", "y", "z"]))
    assert betti(res) == BettiTable({(0, 1): 3, (1, 2): 3, (2, 3): 1})
    assert res.length == 2


def test_resolution_of_point_ideal():
    res = minimal_resolution(polys(["x", "y"]))
    assert betti(res) == BettiTable({(0, 1): 2, (1, 2): 1})


def test_sigma_resolution_cubic_plus_line():
    f = parse_polynomial("(x^3 + y^3 + z^3)*(x + y + z)", F)
    sig = saturated_jacobian(f)
    res = minimal_resolution(sig)
    assert betti(res) == BettiTable({(0, 1): 1, (0, 3): 1, (1, 4): 1})


def test_ar_resolution_lengths():
    # triangle: free, length 0
    tri = syzygies(list(partial_derivatives(parse_polynomial("x*y*z", F))))
    amb0 = FreeGradedModule((0, 0, 0))
    tri = [ModuleElement(amb0, F, dict(e.terms)) for e in tri]
    res = minimal_resolution(tri)
    assert res.length == 0
    assert sorted(res.modules[0].twists) == [1, 1]


def test_betti_invariant_under_generator_permutation():
    base = polys(["x^2 - y*z", "x*y", "z^3 + y^3"])
    expected = betti(minimal_resolution(base))
    rng = random.Random(3)
    for _ in range(4):
        p = base[:]
        rng.shuffle(p)
        assert betti(minimal_resolution(p)) == expected


def test_differentials_compose_to_zero_and_minimal():
    res = minimal_resolution(polys(["x*y", "x*z", "y*z"]))
    # composition checked on construction; verify no constant entries
    for dcols in res.differentials:
        for col in dcols:
            for (_, mono), _c in col.terms.items():
                assert sum(mono) > 0


def test_hilbert_series_consistency():
    gens = polys(["x^2", "x*y^2", "y^4"])
    res = minimal_resolution(gens)
    amb = FreeGradedModule((0,))
    P = PresentedModule(amb, [poly_to_element(g, amb) for g in gens])
    bound = 3 * max(max(m.twists) for m in res.modules)
    for t in range(bound + 1):
        dim_ideal = resolution_hilbert_function(betti(res), t)
        dim_quot = hilbert_function(P, t)
        assert dim_ideal + dim_quot == (t + 1) * (t + 2) // 2


def test_hilbert_series_eventual_values():
    # triangle jacobian saturation: three points
    f = parse_polynomial("x*y*z", F)
    sig = saturated_jacobian(f)
    res = minimal_resolution(sig)
    for t in (6, 7, 8):
        assert (t + 1) * (t + 2) // 2 - resolution_hilbert_function(betti(res), t) == 3
    # two transversal conics: four points
    g = parse_polynomial("(x*z - y^2)*(x^2 - y*z)", F)
    sig2 = saturated_jacobian(g)
    res2 = minimal_resolution(sig2)
    for t in (8, 9):
        assert (t + 1) * (t + 2) // 2 - resolution_hilbert_function(betti(res2), t) == 4


def test_predicted_sigma_cubic_plus_line():
    tables = predicted_sigma_tables((2, 3, 3), (5,), 4)
    target = BettiTable({(0, 1): 1, (0, 3): 1, (1, 4): 1})
    assert target in tables
    assert sigma_table_reachable(target, (2, 3, 3), (5,), 4)


def test_predicted_sigma_nodal_quartic():
    # tau = 1: after three cancellations the single-point table remains
    tables = predicted_sigma_tables((3, 3, 3, 4), (5, 5), 4)
    point = BettiTable({(0, 1): 2, (1, 2): 1})
    assert point in tables


def test_predicted_sigma_free_case_no_b_cancellation():
    tables = predicted_sigma_tables((1, 1), (), 3)
    assert tables == [BettiTable({(0, 2): 3, (1, 3): 2})]


def test_resolution_length_cap():
    # finite-length quotient: projective dimension exactly 3 in 3 variables
    amb = FreeGradedModule((0,))
    res = minimal_resolution(
        PresentedModule(amb, [poly_to_element(g, amb) for g in polys(["x", "y", "z^2"])])
    )
    assert res.length == 3


def test_presentation_with_a_constant_entry_is_rejected():
    # S^2 / (e_0): a unit relation, so the presentation is not minimal
    S2 = FreeGradedModule((0, 0))
    e0 = ModuleElement(S2, F, {(0, (0, 0, 0)): F.one})
    with pytest.raises(ResolutionError, match="not minimal"):
        minimal_resolution(PresentedModule(S2, [e0]))


# --- the independence certificate that ends a resolution ----------------------


def _ar_generators(text, field=F):
    """AR's syzygies, with ambient twists zero, for the curve text."""
    amb0 = FreeGradedModule((0, 0, 0))
    J = list(partial_derivatives(parse_polynomial(text, field)))
    return [ModuleElement(amb0, field, e.terms) for e in syzygies(J)]


@pytest.mark.parametrize("field", [PrimeField(7), F, QQ], ids=["GF7", "GF32003", "QQ"])
def test_the_certificate_never_passes_elements_with_a_syzygy(field):
    """The certificate refuses AR's four minimal generators in S^3 (r > n)
    and every pair (c, x*c), whose values are dependent at every point; it
    passes AR's two second syzygies in S^4, which have no syzygy."""
    res = minimal_resolution(_ar_generators("z*y^2 - x^3 - z*x^2", field))
    ar_min, second = res.generators, res.differentials[0]
    assert (len(ar_min), len(second)) == (4, 2)
    assert not _independent_somewhere(ar_min)
    x = (1, 0, 0)
    for c in ar_min + second:
        assert not _independent_somewhere([c, c.mono_shift(x, field.one)])
    assert _independent_somewhere(second)
    assert syzygies(second) == []


def _records_and_certificates(inputs, points=None):
    """Each input's m and record, the steps the certificate ended, and the number
    of syzygy runs the resolutions made, with the certificate's points
    replaced when points is given."""
    from qcisyz import groebner, resolution

    real, real_syzygies = resolution._independent_somewhere, groebner.syzygies
    passed, runs = [], []

    def recording(elems):
        if real(elems):
            passed.append(elems)
            return True
        return False

    def counting(gens, max_degree=None):
        runs.append(gens)
        return real_syzygies(gens, max_degree)

    records = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution, "_independent_somewhere", recording)
        mp.setattr(groebner, "syzygies", counting)
        if points is not None:
            mp.setattr(resolution, "POINTS", points)
        for inp in inputs:
            a = analyze(inp)
            records.append((a.m, render_json(analysis_to_json(a))))
    return records, passed, len(runs)


def _certificate_inputs():
    for entry in builtin_catalog():
        for field in (PrimeField(7), F, QQ):
            if not (field.prime == 7 and entry.name == "lines-6"):  # every GF(7) line meets its nodes
                yield entry.input_over(field)
    for s in (2, 3, 4, 5):
        yield random_qci(s, F, 0)


def test_every_certified_step_has_no_syzygy():
    """On the catalog over GF(7), GF(32003) and Q and on draws at s = 2..5,
    each step the certificate ends has no syzygy by a Buchberger run. It
    ends the last step of AR, Sigma and N on every input, except N's in the
    free case, where N has no relations to resolve."""
    inputs = list(_certificate_inputs())
    records, passed, _ = _records_and_certificates(inputs)
    free = sum(m == 2 for m, _ in records)
    assert 0 < free < len(inputs)
    assert len(passed) == 3 * len(inputs) - free
    for elems in passed:
        assert syzygies(elems) == []


def test_points_where_every_rank_drops_leave_the_decision_to_buchberger():
    """With the origin as the only point, every step's values vanish, the
    certificate ends nothing and a syzygy run ends each resolution, as it
    did before the certificate: every record is the same, at one more run
    for each step the certificate ended."""
    inputs = list(_certificate_inputs())
    records, passed, runs = _records_and_certificates(inputs)
    dropped, none_passed, more_runs = _records_and_certificates(inputs, ((0, 0, 0),))
    assert dropped == records
    assert none_passed == []
    assert more_runs == runs + len(passed)
