"""The benchmark's workloads: which inputs each one runs, drawn from a seed.

A workload is a list of rounds; a round is a list of instances. A timed run
repeats whole rounds until its time is up. Where the instances of a round
differ a lot in cost, the round holds all of them, so that every run does
the same mix; where they cost about the same, each round is one instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from qcisyz import catalog, fields, report

import reference

MASTER_SEED = 20260826  # the acceptance corpus's master seed
PRIME = fields.DEFAULT_PRIME

# Values derived by hand, not by the program. Each line says how.
HAND_DERIVED = {
    # One A1 node (Tjurina number 1). du Plessis-Wall forces d1 = 2 (d1 = 1
    # would need tau >= (d-1)(d-2) = 2); four degree-2 syzygies because
    # dim AR_2 = 3*dim S_2 - dim J_4 = 18 - (15 - 1); sum d_i - sum b_j = d-1
    # with two b_j >= d1 + 1 = 3 leaves b = (3, 3).
    "nodal-cubic": {"tau": 1, "exponents": (2, 2, 2, 2), "b": (3, 3)},
    # Only singular point (0:0:1), locally xy + x^4 + y^4: one A1 node.
    # du Plessis-Wall gives 3*(3 - d1) <= 1, so d1 = d - 1 = 3.
    "nodal-quartic": {"tau": 1, "d1": 3},
    # Smooth Fermat cubic; on z = -x-y it becomes -3xy(x+y): the line
    # meets it transversally in three points, three nodes.
    "cubic-plus-line": {"tau": 3},
    # The conics meet at (t^2 : t : 1) with t^4 - t = 0: four nodes.
    "two-conics": {"tau": 4},
    # k lines, no three concurrent: k(k-1)/2 nodes. A generic arrangement
    # of k >= 4 lines has d1 = k - 2 (Dimca, Hyperplane Arrangements, 2017).
    "lines-4": {"tau": 6, "d1": 2},
    "lines-5": {"tau": 10, "d1": 3},
    "lines-6": {"tau": 15, "d1": 4},
}


@dataclass(frozen=True)
class Instance:
    name: str
    mode: str  # "curve" | "triple"
    texts: tuple
    expected: dict = dc_field(default_factory=dict, compare=False)


@dataclass
class Workload:
    name: str
    field_kind: str  # "fp" | "q"
    deep_checks: bool
    rounds: list

    @property
    def prime(self):
        return PRIME if self.field_kind == "fp" else None


def child_seed(seed: int, i: int) -> int:
    """Seed of the i-th draw; with seed 0 these are the acceptance corpus's seeds."""
    return MASTER_SEED * 2**32 + seed * 4096 + i


def triple_texts(field, s: int, seed: int, i: int) -> tuple:
    """The texts of draw `i` of `catalog.random_qci` at this s and seed."""
    inp = catalog.random_qci(s, field, child_seed(seed, i))
    return tuple(report.input_to_json(inp)["polynomials"])


def choose_draws(field, s: int, seed: int, count: int, tau: int, start: int = 0) -> tuple:
    """Indices of the first `count` draws from `start` on whose Tjurina
    number, by our own rank count, is `tau`. This filter is the benchmark's
    own work, not the program's: it runs before the timed set-up, which
    draws only the chosen indices again."""
    prime = field.prime if field.kind == "fp" else None
    out = []
    i = start
    while len(out) < count:
        if reference.tjurina_number(triple_texts(field, s, seed, i), prime) == tau:
            out.append(i)
        i += 1
    return tuple(out)


def catalog_curves(names):
    entries = {e.name: e for e in catalog.builtin_catalog()}
    return [
        Instance(n, entries[n].mode, tuple(entries[n].texts), HAND_DERIVED.get(n, {}))
        for n in names
    ]


@dataclass(frozen=True)
class Plan:
    """Which inputs a workload runs for one seed, before any is drawn."""

    name: str
    seed: int
    field_kind: str  # "fp" | "q"
    deep_checks: bool
    curves: tuple  # catalog names
    draws: tuple  # (s, draw indices) pairs
    one_round: bool  # all inputs in one round; else one input per round


def plan(name: str, seed: int, tiny: bool) -> Plan:
    """The workload's inputs for this seed; `tiny` is the self-test's size.
    Only a `tau` filter (`choose_draws`) does any work here."""
    fp = fields.PrimeField(PRIME)
    if name == "qci-fp":
        # s = 5, where iterated saturation dominates; tau = 4 is the most
        # common Tjurina number there and keeps the per-instance cost even.
        s, tau, count = (2, 1, 2) if tiny else (5, 4, 6)
        return Plan(name, seed, "fp", False, (), ((s, choose_draws(fp, s, seed, count, tau)),), False)
    if name == "qci-q":
        # All catalog curves but the triangle (about 20 ms, far below the
        # others), plus s = 2 triples (tau is always 1) and s = 3 triples
        # with tau = 2, the common value. lines-5 sits at the round's median,
        # so the median does not hang on which random triples were drawn.
        if tiny:
            return Plan(name, seed, "q", False, ("nodal-cubic",), ((2, (0,)),), True)
        curves = ("nodal-cubic", "nodal-quartic", "cubic-plus-line", "two-conics", "lines-4", "lines-5", "lines-6")
        s3 = choose_draws(fields.QQ, 3, seed, 4, tau=2, start=2048)
        return Plan(name, seed, "q", False, curves, ((2, (0, 1)), (3, s3)), True)
    if name == "oracle-fp":
        # The deep checks cost 0.2-1.2 s on these curves and s = 2 triples;
        # cubic-plus-line (3.5 s), lines-5 (20 s) and lines-6 (about 2 min)
        # would dominate the round, and the triangle is far below 0.1 s.
        if tiny:
            return Plan(name, seed, "fp", True, ("nodal-cubic",), ((2, (0,)),), True)
        curves = ("nodal-cubic", "nodal-quartic", "two-conics", "lines-4")
        return Plan(name, seed, "fp", True, curves, ((2, tuple(range(8))),), True)
    raise KeyError(name)


def triples(field, s: int, seed: int, indices) -> list:
    return [Instance(f"s{s}-draw{i}", "triple", triple_texts(field, s, seed, i)) for i in indices]


def build(p: Plan) -> Workload:
    """Draw the planned inputs: the set-up's share of `catalog` work."""
    field = fields.PrimeField(PRIME) if p.field_kind == "fp" else fields.QQ
    inputs = catalog_curves(p.curves) if p.curves else []
    for s, indices in p.draws:
        inputs += triples(field, s, p.seed, indices)
    rounds = [inputs] if p.one_round else [[inst] for inst in inputs]
    return Workload(p.name, p.field_kind, p.deep_checks, rounds)
