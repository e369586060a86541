"""Spans and counts around calls into `qcisyz`, recorded from outside it.

`install` replaces module attributes of `qcisyz` by timing wrappers, so only
the traced run pays for them. Each span is [name, start, end, parent, phase];
`phase` separates the benchmark's choice of draws, the set-up and the timed
operations. `fields`, `orders`, `poly` and `modules` are called millions of
times per operation and are not wrapped: a wrapper would distort them.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from qcisyz import catalog, groebner, linalg, modules, parsing, pipeline, poly, report, theorems

# per-layer metric -> ("time" | "calls", span names) or ("count", counter)
LAYER_METRICS = {
    "groebner.syzygy_gb_s": ("time", ["pipeline.SubmoduleGB"]),
    "groebner.saturate_s": ("time", ["groebner.saturate"]),
    "groebner.colon_calls": ("calls", ["groebner.colon"]),
    "groebner.buchberger_calls": ("calls", ["groebner.buchberger"]),
    "groebner.buchberger_s": ("time", ["groebner.buchberger"]),
    "groebner.basis_elements": ("count", "groebner.basis_elements"),
    "groebner.quotient_s": ("time", ["groebner.submodule_quotient"]),
    "resolution.ar_s": ("time", ["resolution.ar"]),
    "resolution.sigma_s": ("time", ["resolution.sigma"]),
    "resolution.n_s": ("time", ["resolution.n"]),
    "resolution.q_s": ("time", ["resolution.q"]),
    "linalg.hilbert_function_s": ("time", ["linalg.hilbert_function"]),
    "linalg.hilbert_function_calls": ("calls", ["linalg.hilbert_function"]),
    "linalg.submodule_dim_s": ("time", ["linalg.submodule_dim"]),
    "linalg.minimal_generators_s": ("time", ["linalg.minimal_generators"]),
    "linalg.echelon_rows": ("count", "linalg.echelon_rows"),
    "theorems.check_all_s": ("time", ["theorems.check_all"]),
    "report.render_s": ("time", ["report.analysis_to_json", "report.render_json"]),
    "parsing.parse_s": ("time", ["parsing.parse_polynomial"]),
    "catalog.generate_s": ("time", ["catalog.random_qci", "catalog.builtin_catalog"]),
}


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()  # (phase, counter name) -> total
        self.phase = "setup"
        self.presented_seen = {}  # analyze span -> presented modules resolved

    def wrap(self, fn, name, count=None):
        """`fn` inside a span; `name` may be a function of the call's args."""

        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            idx = len(self.spans)
            self.spans.append([span, time.perf_counter(), None, self.stack[-1] if self.stack else -1, self.phase])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if count:
                self.counts[(self.phase, count[0])] += count[1](result)
            return result

        return wrapper

    def _resolution_name(self, args):
        """Which of analyze's four resolutions this is. AR is resolved from
        module elements and Sigma from polynomials; of the two presented
        modules, N comes first and Q second."""
        x = args[0]
        if not isinstance(x, modules.PresentedModule):
            return "resolution.sigma" if isinstance(x[0], poly.Polynomial) else "resolution.ar"
        owner = next((i for i in reversed(self.stack) if self.spans[i][0] == "pipeline.analyze"), -1)
        seen = self.presented_seen.get(owner, 0)
        self.presented_seen[owner] = seen + 1
        return ("resolution.n", "resolution.q")[min(seen, 1)]

    def install(self):
        def everywhere(module, attr, name, count=None):
            orig = getattr(module, attr)
            new = self.wrap(orig, name, count)
            for modname, mod in list(sys.modules.items()):
                if modname == "qcisyz" or modname.startswith("qcisyz."):
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, new)

        for module, attrs in (
            (groebner, ["saturate", "colon", "submodule_quotient"]),
            (linalg, ["hilbert_function", "submodule_dim", "minimal_generators"]),
            (theorems, ["check_all"]),
            (report, ["analysis_to_json", "render_json"]),
            (parsing, ["parse_polynomial"]),
            (catalog, ["random_qci", "builtin_catalog"]),
            (pipeline, ["analyze"]),
        ):
            for attr in attrs:
                everywhere(module, attr, f"{module.__name__.split('.')[-1]}.{attr}")
        everywhere(groebner, "buchberger", "groebner.buchberger", ("groebner.basis_elements", lambda r: len(r.elements)))
        # J's syzygy GB is the one SubmoduleGB that analyze builds itself
        pipeline.SubmoduleGB = self.wrap(pipeline.SubmoduleGB, "pipeline.SubmoduleGB")
        pipeline.minimal_resolution = self.wrap(pipeline.minimal_resolution, self._resolution_name)

        make_echelon = linalg.make_echelon

        def counting_echelon(field, width):
            ech = make_echelon(field, width)
            add = ech.add

            def counted_add(vec):
                self.counts[(self.phase, "linalg.echelon_rows")] += 1
                return add(vec)

            ech.add = counted_add
            return ech

        linalg.make_echelon = counting_echelon

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer values: per operation of the timed phase, except catalog
        generation, which only set-up calls: seconds of the set-up."""
        time_by, calls_by = Counter(), Counter()
        for name, start, end, _, phase in self.spans:
            time_by[(phase, name)] += end - start
            calls_by[(phase, name)] += 1
        out = {}
        for metric, (kind, what) in LAYER_METRICS.items():
            phase, per = ("setup", 1) if metric.startswith("catalog.") else ("run", ops)
            if kind == "count":
                total = self.counts[(phase, what)]
            else:
                source = time_by if kind == "time" else calls_by
                total = sum(source[(phase, n)] for n in what)
            out[metric] = {"value": total / per, "unit": "s" if kind == "time" else "count"}
        return out
