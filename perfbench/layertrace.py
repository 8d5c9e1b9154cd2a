"""Per-layer tracing from outside the package.

``install()`` replaces each traced function of ``graphcode_lt`` with a
wrapper in every module namespace that binds it (``commutes_qubitwise``
is bound in ``pauli``, ``opsets``, ``losstree`` and the package root, for
example), and traced methods on their class.  ``uninstall()`` puts the
originals back.  Nothing under ``src/`` is edited.

Each wrapped call is a span: name, start, end and parent.  A layer's
self time is a span's duration minus the part covered by its child
spans; every ``*_s`` metric is a self time, so the layer times add up to
the traced wall time less the harness's own code.  Calls made millions
of times are kept as aggregates only (``HOT``), or only counted
(``COUNTED``), so the trace stays small; all other spans are also kept
one by one and written out at the end.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

clock = time.perf_counter

# span name -> (module, attribute) of each function it wraps;
# "Class.method" attributes wrap a method on its class.
SPANS = {
    "opsets.enumerate": [("opsets", "enumerate_nontrivial")],
    "opsets.stabilizer_group": [("opsets", "stabilizer_group")],
    "losstree.strategies": [("losstree", "_strategies")],
    "losstree.pauli_tree": [("losstree", "build_pauli_tree")],
    "losstree.arbitrary_tree": [("losstree", "build_arbitrary_tree")],
    "losstree.load_or_build": [("losstree", "load_or_build")],
    "losstree.mc_decode": [("losstree", "monte_carlo_decode")],
    "polynomials.extract": [("losstree", "success_polynomial"),
                            ("losstree", "total_polynomial")],
    "polynomials.break_even": [("polynomials", "break_even")],
    "polynomials.evaluate": [("polynomials", "LossPolynomial.evaluate"),
                             ("polynomials",
                              "LossPolynomial.evaluate_heterogeneous")],
    "errordecode.extend": [("errordecode", "ErrorAnalysis.__init__")],
    "errordecode.fault": [("errordecode", "fault_probability")],
    "errordecode.ml": [("errordecode", "ml_logical_error")],
    "fusion.adaptive_compile": [("fusion", "AdaptiveFusionAnalysis.__init__")],
    "fusion.transversal_counts": [("fusion", "_transversal_counts")],
    "fusion.failure_bases": [("fusion", "compile_failure_bases")],
    "fusion.result": [("fusion", "AdaptiveFusionAnalysis.result"),
                      ("fusion", "_transversal_result")],
    "modular.unit_F": [("modular", "unit_F")],
    "modular.transmission": [("modular", "logical_transmission")],
    "apps.fbqc_threshold": [("apps", "fbqc_loss_threshold")],
    "apps.rgs": [("apps", "rgs_link_probability")],
    "graphs.canonical_form": [("graphs", "canonical_form")],
    "graphs.lc_orbit": [("graphs", "lc_orbit")],
    "search.enumerate": [("search", "enumerate_candidates")],
    "search.unrooted": [("search", "unrooted_representatives")],
    "search.score": [("search", "evaluate_objective")],
    "cli.main": [("cli", "main")],
    "cli.emit": [("cli", "emit_rows"), ("cli", "_write")],
}
HOT = {"polynomials.evaluate", "errordecode.ml", "fusion.result",
       "graphs.canonical_form"}
COUNTED = {
    "pauli.compat": [("pauli", "commutes_qubitwise")],
    "graphs.local_complement": [("graphs", "local_complement")],
    "graphs.canonical_key": [("graphs", "canonical_key")],
}
GENERATORS = {"search.enumerate"}


class Tracer:
    """Spans and counters of one traced process, per phase."""

    def __init__(self):
        self.phase = "timed"
        self.stack: list[list] = []  # [name, start, child_time, span_id, flag]
        self.active: dict[str, int] = defaultdict(int)
        self.calls: dict = defaultdict(int)      # (phase, name) -> calls
        self.self_s: dict = defaultdict(float)   # (phase, name) -> self time
        self.counts: dict = defaultdict(int)     # (phase, counter) -> value
        self.built_trees: dict = defaultdict(list)
        self.spans: list[list] = []
        self._restore: list[tuple] = []

    # -- span bookkeeping ----------------------------------------------------

    def enter(self, name: str) -> list:
        span_id = -1
        if name not in HOT:
            span_id = len(self.spans)
            parent = self.stack[-1][3] if self.stack else -1
            self.spans.append([name, 0.0, 0.0, parent, self.phase])
        frame = [name, clock(), 0.0, span_id, False]
        self.stack.append(frame)
        self.active[name] += 1
        return frame

    def exit(self, frame: list) -> None:
        end = clock()
        self.stack.pop()
        name, start, child, span_id, _ = frame
        dur = end - start
        key = (self.phase, name)
        self.calls[key] += 1
        self.self_s[key] += dur - child
        self.active[name] -= 1
        if self.stack:
            self.stack[-1][2] += dur
        if span_id >= 0:
            self.spans[span_id][1] = start
            self.spans[span_id][2] = end

    def count(self, counter: str, n: int = 1) -> None:
        self.counts[(self.phase, counter)] += n

    # -- per-span work counters ---------------------------------------------

    def on_enter(self, name):
        if name in ("losstree.pauli_tree", "losstree.arbitrary_tree"):
            parent = self.stack[-2] if len(self.stack) > 1 else None
            if parent is not None and parent[0] == "losstree.load_or_build":
                parent[4] = True  # the disk cache missed

    def on_exit(self, name, frame, args, result, missed):
        if missed:  # compile counters count builds, not lru_cache hits
            if name == "opsets.enumerate":
                self.count("opsets.operators", len(result))
            elif name == "losstree.strategies":
                self.count("losstree.strategy_pairs", len(result))
            elif name in ("losstree.pauli_tree", "losstree.arbitrary_tree"):
                self.built_trees[self.phase].append(result)
            elif name == "fusion.transversal_counts":
                self.count("fusion.transversal_assignments",
                           sum(result.values()))
        if name == "losstree.load_or_build":
            self.count("losstree.disk_misses" if frame[4]
                       else "losstree.disk_hits")
        elif name == "polynomials.extract":
            self.count("polynomials.terms", len(result.terms))
        elif name == "errordecode.extend":
            self.count("errordecode.extended_leaves", len(args[0].entries))
        elif name == "fusion.result" and self.active["apps.fbqc_threshold"]:
            self.count("apps.fbqc_probes")
        elif name == "graphs.lc_orbit":
            self.count("graphs.orbit_members", len(result[0]))
            if self.active["search.unrooted"]:
                self.count("search.new_classes")
        elif name == "search.score":
            self.count("search.scored")

    def on_raise(self, name, exc):
        if name == "search.score":
            from graphcode_lt.opsets import ResourceLimitError
            self.count("search.deferred" if isinstance(exc, ResourceLimitError)
                       else "search.failed")

    # -- wrappers ------------------------------------------------------------

    def _wrap_span(self, name: str, fn):
        tracer = self
        info = getattr(fn, "cache_info", None)  # lru_cache'd: count misses
        generator = name in GENERATORS

        def wrapper(*args, **kwargs):
            frame = tracer.enter(name)
            tracer.on_enter(name)
            misses = info().misses if info else 0
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit(frame)
                tracer.on_raise(name, exc)
                raise
            tracer.exit(frame)
            missed = info is None or info().misses > misses
            tracer.on_exit(name, frame, args, result, missed)
            if generator:
                return tracer._traced_iter(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _traced_iter(self, name, gen):
        """Each resumption of a generator is one span of ``name``."""
        while True:
            frame = self.enter(name)
            try:
                item = next(gen)
            except StopIteration:
                self.exit(frame)
                return
            except BaseException:
                self.exit(frame)
                raise
            self.exit(frame)
            self.count("search.candidates")
            yield item

    def _wrap_count(self, name: str, fn):
        counts = self.counts
        tracer = self
        if name == "graphs.canonical_key":
            def wrapper(*args, **kwargs):
                if tracer.active["search.unrooted"]:
                    counts[(tracer.phase, "search.extensions")] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[(tracer.phase, name)] += 1
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        package = sys.modules["graphcode_lt"]
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "graphcode_lt" or n.startswith("graphcode_lt.")]
        for table, make in ((SPANS, self._wrap_span),
                            (COUNTED, self._wrap_count)):
            for name, targets in table.items():
                for mod_name, attr in targets:
                    module = getattr(package, mod_name)
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(module, cls_name)
                        original = cls.__dict__[meth]
                        self._patch(cls, meth, original, make(name, original))
                        continue
                    original = getattr(module, attr)
                    wrapper = make(name, original)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is original:
                                self._patch(m, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, phase: str) -> dict:
        """Per-layer metric values of one phase, named as in BENCHMARK.json."""
        calls = {n: c for (p, n), c in self.calls.items() if p == phase}
        self_s = {n: s for (p, n), s in self.self_s.items() if p == phase}
        counts = {n: c for (p, n), c in self.counts.items() if p == phase}
        nodes = leaves = 0
        for tree in self.built_trees[phase]:
            stats = tree.stats()
            nodes += stats["nodes"]
            leaves += stats["success_leaves"] + stats["failure_leaves"]
        extensions = counts.get("search.extensions", 0)
        out = {
            "pauli.compat_calls": counts.get("pauli.compat", 0),
            "opsets.operators": counts.get("opsets.operators", 0),
            "losstree.strategy_pairs": counts.get("losstree.strategy_pairs", 0),
            "losstree.tree_nodes": nodes,
            "losstree.tree_leaves": leaves,
            "losstree.disk_hits": counts.get("losstree.disk_hits", 0),
            "losstree.disk_misses": counts.get("losstree.disk_misses", 0),
            "polynomials.terms": counts.get("polynomials.terms", 0),
            "polynomials.break_even_calls": calls.get("polynomials.break_even", 0),
            "polynomials.evaluate_calls": calls.get("polynomials.evaluate", 0),
            "errordecode.extended_leaves":
                counts.get("errordecode.extended_leaves", 0),
            "errordecode.ml_calls": calls.get("errordecode.ml", 0),
            "errordecode.fault_calls": calls.get("errordecode.fault", 0),
            "fusion.adaptive_compiles": calls.get("fusion.adaptive_compile", 0),
            "fusion.transversal_assignments":
                counts.get("fusion.transversal_assignments", 0),
            "fusion.result_calls": calls.get("fusion.result", 0),
            "modular.transmission_calls": calls.get("modular.transmission", 0),
            "apps.fbqc_threshold_calls": calls.get("apps.fbqc_threshold", 0),
            "apps.fbqc_probes": counts.get("apps.fbqc_probes", 0),
            "graphs.canonical_form_calls": calls.get("graphs.canonical_form", 0),
            "graphs.lc_orbit_calls": calls.get("graphs.lc_orbit", 0),
            "graphs.orbit_members": counts.get("graphs.orbit_members", 0),
            "graphs.local_complement_calls":
                counts.get("graphs.local_complement", 0),
            "search.candidates": counts.get("search.candidates", 0),
            "search.extensions": extensions,
            "search.new_class_ratio": (counts.get("search.new_classes", 0)
                                       / extensions if extensions else 0.0),
            "search.scored": counts.get("search.scored", 0),
            "search.deferred": counts.get("search.deferred", 0),
            "search.failed": counts.get("search.failed", 0),
            "cli.jobs": calls.get("cli.main", 0),
        }
        for metric, spans in SELF_TIMES.items():
            out[metric] = sum(self_s.get(s, 0.0) for s in spans)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, start, end, parent, phase) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "phase": phase}) + "\n")


# metric -> the spans whose self time it sums
SELF_TIMES = {
    "opsets.enumerate_s": ["opsets.enumerate"],
    "opsets.stabilizer_group_s": ["opsets.stabilizer_group"],
    "losstree.strategies_s": ["losstree.strategies"],
    "losstree.pauli_tree_s": ["losstree.pauli_tree"],
    "losstree.arbitrary_tree_s": ["losstree.arbitrary_tree"],
    "losstree.load_or_build_s": ["losstree.load_or_build"],
    "losstree.mc_decode_s": ["losstree.mc_decode"],
    "polynomials.extract_s": ["polynomials.extract"],
    "polynomials.break_even_s": ["polynomials.break_even"],
    "polynomials.evaluate_s": ["polynomials.evaluate"],
    "errordecode.extend_s": ["errordecode.extend"],
    "errordecode.ml_s": ["errordecode.ml"],
    "errordecode.fault_s": ["errordecode.fault"],
    "fusion.adaptive_compile_s": ["fusion.adaptive_compile"],
    "fusion.transversal_counts_s": ["fusion.transversal_counts"],
    "fusion.failure_bases_s": ["fusion.failure_bases"],
    "fusion.result_s": ["fusion.result"],
    "modular.unit_F_s": ["modular.unit_F"],
    "modular.transmission_s": ["modular.transmission"],
    "apps.fbqc_threshold_s": ["apps.fbqc_threshold"],
    "apps.rgs_s": ["apps.rgs"],
    "graphs.canonical_form_s": ["graphs.canonical_form"],
    "graphs.lc_orbit_s": ["graphs.lc_orbit"],
    "search.enumerate_s": ["search.enumerate", "search.unrooted"],
    "search.score_s": ["search.score"],
    "cli.main_s": ["cli.main"],
    "cli.emit_s": ["cli.emit"],
}

# Compile-side metrics that evaluate-warm also reports for its set-up,
# prefixed "setup.", so work moving between set-up and the timed phase
# shows layer by layer.
SETUP_METRICS = (
    "pauli.compat_calls", "opsets.enumerate_s", "opsets.operators",
    "opsets.stabilizer_group_s", "losstree.strategies_s",
    "losstree.strategy_pairs", "losstree.pauli_tree_s",
    "losstree.arbitrary_tree_s", "losstree.tree_nodes", "losstree.tree_leaves",
    "losstree.disk_misses", "polynomials.extract_s", "errordecode.extend_s",
    "errordecode.extended_leaves", "errordecode.ml_s",
    "fusion.adaptive_compiles", "fusion.adaptive_compile_s",
    "fusion.transversal_counts_s", "fusion.failure_bases_s",
)
