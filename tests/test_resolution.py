import random

import pytest

from qcisyz.fields import PrimeField
from qcisyz.groebner import groebner_basis, saturate
from qcisyz.linalg import hilbert_function
from qcisyz.modules import FreeGradedModule, ModuleElement, PresentedModule, poly_to_element
from qcisyz.parsing import parse_polynomial
from qcisyz.poly import partial_derivatives
from qcisyz.resolution import (
    BettiTable,
    ResolutionError,
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
    from qcisyz.groebner import syzygies

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
