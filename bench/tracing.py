"""Outside-in layer trace: spans around the public functions of each module.

The tracer wraps functions from the benchmark's side, at every module
binding of the same function object (``morphisms`` and ``colimits`` import
``mutate_seed`` by name, for example), and methods on their classes. A span
records name, start, end, parent and job id; spans stay in memory until the
run writes them out. A span's self time is its duration minus the time its
child spans cover. Hot leaves are timed or counted without span records.
Work the tracer does after a call (result hooks) is charged to no span.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter_ns

import clusterlab
import clusterlab.cli

# Metrics reported by a traced run, in BENCHMARK.json order: (name, unit, better).
PER_LAYER = [
    ("laurent.exact_div.calls", "count", "lower"),
    ("laurent.exact_div.self_s", "s", "lower"),
    ("laurent.mul.calls", "count", "lower"),
    ("laurent.mul.self_s", "s", "lower"),
    ("laurent.format.calls", "count", "lower"),
    ("laurent.format.self_s", "s", "lower"),
    ("laurent.peak_terms", "count", "lower"),
    ("seeds.mutate.calls", "count", "lower"),
    ("seeds.mutate.self_s", "s", "lower"),
    ("seeds.canonical_key.calls", "count", "lower"),
    ("seeds.canonical_key.self_s", "s", "lower"),
    ("seeds.neighbours.calls", "count", "lower"),
    ("seeds.neighbours.self_s", "s", "lower"),
    ("seeds.enumerate.yield", "ratio", "higher"),
    ("disc.flip.calls", "count", "lower"),
    ("disc.flip.self_s", "s", "lower"),
    ("disc.validate.calls", "count", "lower"),
    ("disc.validate.self_s", "s", "lower"),
    ("disc.arcs_cross.calls", "count", "lower"),
    ("disc.tri_seed.self_s", "s", "lower"),
    ("disc.neighbour_row.calls", "count", "lower"),
    ("disc.neighbour_row.self_s", "s", "lower"),
    ("morphisms.cm3.nodes", "count", "lower"),
    ("morphisms.cm3.state_ratio", "ratio", "higher"),
    ("morphisms.cm3.self_s", "s", "lower"),
    ("morphisms.apply.calls", "count", "lower"),
    ("morphisms.apply.self_s", "s", "lower"),
    ("morphisms.nospec.self_s", "s", "lower"),
    ("colimits.ball.calls", "count", "lower"),
    ("colimits.ball.self_s", "s", "lower"),
    ("colimits.oracle_rows", "count", "lower"),
    ("colimits.inclusion.self_s", "s", "lower"),
    ("colimits.stable.self_s", "s", "lower"),
    ("colimits.stable.stage_index", "index", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.load.self_s", "s", "lower"),
    ("cli.report_bytes", "B", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def _state_key(seed):
    """Seed identity under the value-preserving label correspondence, from
    values and matrix alone (no text formatting, so no traced calls)."""
    val = seed.values
    return (
        frozenset(val.values()),
        frozenset(val[v] for v in seed.exchangeable),
        frozenset(
            (val[v], val[w], b) for v, row in seed.matrix.items() for w, b in row.items()
        ),
    )


class _Frame:
    __slots__ = ("id", "name", "child_ns", "ctx")

    def __init__(self, span_id, name):
        self.id = span_id
        self.name = name
        self.child_ns = 0
        self.ctx = None


class Tracer:
    """Collects spans and per-name call counts and self times while a job
    runs (``active``); wrappers pass straight through otherwise."""

    def __init__(self):
        self.active = False
        self.job = None
        self.keep_spans = True
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.stats: Counter = Counter()
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- collection -----------------------------------------------------------

    def reset(self):
        self.spans = []
        self.calls = Counter()
        self.self_ns = Counter()
        self.stats = Counter()

    def _span(self, name, fn, hook=None, opener=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = _Frame(tracer._next_id, name)
            if opener is not None:
                opener(frame)
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_ns[name] += t1 - t0 - frame.child_ns
                if tracer.keep_spans:
                    tracer.spans.append(
                        (frame.id, name, t0, t1, parent.id if parent else None, tracer.job)
                    )
                if parent is not None:
                    parent.child_ns += t1 - t0
            if hook is not None:
                hook(result, args, frame, parent)
                if parent is not None:
                    parent.child_ns += perf_counter_ns() - t1
            return result

        return wrapper

    def _leaf(self, name, fn):
        tracer = self

        def wrapper(*args):
            if not tracer.active:
                return fn(*args)
            t0 = perf_counter_ns()
            result = fn(*args)
            dt = perf_counter_ns() - t0
            tracer.calls[name] += 1
            tracer.self_ns[name] += dt
            if tracer._stack:
                tracer._stack[-1].child_ns += dt
            return result

        return wrapper

    def _counted(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- result hooks ------------------------------------------------------------

    def _on_exact_div(self, result, args, frame, parent):
        self.stats["peak_terms"] = max(self.stats["peak_terms"], len(result.terms))

    def _on_mutate(self, result, args, frame, parent):
        if parent is None:
            return
        if parent.name == "seeds.enumerate":
            parent.ctx["mutations"] += 1
        elif parent.name == "morphisms.cm3":
            pending = parent.ctx["pending"]
            pending.append(result)
            if len(pending) == 2:
                parent.ctx["states"].add((_state_key(pending[0]), _state_key(pending[1])))
                pending.clear()

    def _on_canonical_key(self, result, args, frame, parent):
        if parent is not None and parent.name == "seeds.enumerate":
            parent.ctx["keys"].add(result)

    @staticmethod
    def _open_enumerate(frame):
        frame.ctx = {"keys": set(), "mutations": 0}

    @staticmethod
    def _open_cm3(frame):
        frame.ctx = {"states": set(), "pending": []}

    def _on_enumerate(self, result, args, frame, parent):
        self.stats["enumerate_distinct"] += len(frame.ctx["keys"])
        self.stats["enumerate_mutations"] += frame.ctx["mutations"]

    def _on_cm3(self, result, args, frame, parent):
        m = args[0]
        states = frame.ctx["states"]
        states.add((_state_key(m.source), _state_key(m.target)))
        self.stats["cm3_nodes"] += result.nodes
        self.stats["cm3_states"] += len(states)

    def _on_stable(self, result, args, frame, parent):
        self.stats["stable_calls"] += 1
        self.stats["stable_stage_sum"] += result[1]

    def _on_main(self, result, args, frame, parent):
        out = getattr(sys.stdout, "getvalue", None)
        if out is not None:
            self.stats["report_bytes"] += len(out().encode())

    # -- installation -------------------------------------------------------------

    def _replace(self, owner, attr, wrapped):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def _wrap_function(self, original, wrapped):
        """Install `wrapped` at every clusterlab module binding of `original`."""
        for name, module in list(sys.modules.items()):
            if name != "clusterlab" and not name.startswith("clusterlab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, wrapped)

    def install(self):
        cl = clusterlab
        functions = [
            ("laurent.exact_div", cl.lp_exact_div, self._on_exact_div),
            ("laurent.format", cl.format_poly, None),
            ("seeds.mutate", cl.mutate_seed, self._on_mutate),
            ("seeds.enumerate", cl.enumerate_cluster_variables, self._on_enumerate),
            ("seeds.enumerate", cl.enumerate_seeds, self._on_enumerate),
            ("disc.flip", cl.flip_arc, None),
            ("disc.validate", cl.validate_triangulation, None),
            ("disc.tri_seed", cl.seed_from_triangulation, None),
            ("morphisms.cm3", cl.check_cm3, self._on_cm3),
            ("morphisms.nospec", cl.check_no_specialization_conditions, None),
            ("colimits.ball", cl.materialize_ball, None),
            ("colimits.inclusion", cl.inclusion_morphism, None),
            ("colimits.stable", cl.stable_mutation, self._on_stable),
            ("cli.main", clusterlab.cli.main, self._on_main),
            ("cli.load", clusterlab.cli.load_seed_file, None),
            ("cli.load", clusterlab.cli.load_map_file, None),
            ("cli.load", clusterlab.cli.load_triangulation_file, None),
        ]
        openers = {"seeds.enumerate": self._open_enumerate, "morphisms.cm3": self._open_cm3}
        for name, original, hook in functions:
            self._wrap_function(original, self._span(name, original, hook, openers.get(name)))
        self._wrap_function(cl.arcs_cross, self._counted("disc.arcs_cross", cl.arcs_cross))
        methods = [
            (cl.Seed, "canonical_key", "seeds.canonical_key", self._on_canonical_key),
            (cl.Seed, "neighbours", "seeds.neighbours", None),
            (cl.ClusterMap, "apply", "morphisms.apply", None),
            (cl.InfiniteTriangulation, "arc_neighbour_row", "disc.neighbour_row", None),
        ]
        for owner, attr, name, hook in methods:
            self._replace(owner, attr, self._span(name, owner.__dict__[attr], hook))
        self._replace(cl.LaurentPoly, "__mul__", self._leaf("laurent.mul", cl.LaurentPoly.__mul__))
        for oracle in (cl.FiniteSeedOracle, cl.PathQuiverOracle, cl.TriangulationOracle):
            self._replace(
                oracle, "neighbor_row", self._counted("colimits.oracle_rows", oracle.neighbor_row)
            )

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results --------------------------------------------------------------------

    def metrics(self) -> dict:
        calls, self_ns, stats = self.calls, self.self_ns, self.stats

        def secs(name):
            return self_ns[name] / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "laurent.exact_div.calls": calls["laurent.exact_div"],
            "laurent.exact_div.self_s": secs("laurent.exact_div"),
            "laurent.mul.calls": calls["laurent.mul"],
            "laurent.mul.self_s": secs("laurent.mul"),
            "laurent.format.calls": calls["laurent.format"],
            "laurent.format.self_s": secs("laurent.format"),
            "laurent.peak_terms": stats["peak_terms"],
            "seeds.mutate.calls": calls["seeds.mutate"],
            "seeds.mutate.self_s": secs("seeds.mutate"),
            "seeds.canonical_key.calls": calls["seeds.canonical_key"],
            "seeds.canonical_key.self_s": secs("seeds.canonical_key"),
            "seeds.neighbours.calls": calls["seeds.neighbours"],
            "seeds.neighbours.self_s": secs("seeds.neighbours"),
            "seeds.enumerate.yield": ratio(
                stats["enumerate_distinct"], stats["enumerate_mutations"]
            ),
            "disc.flip.calls": calls["disc.flip"],
            "disc.flip.self_s": secs("disc.flip"),
            "disc.validate.calls": calls["disc.validate"],
            "disc.validate.self_s": secs("disc.validate"),
            "disc.arcs_cross.calls": calls["disc.arcs_cross"],
            "disc.tri_seed.self_s": secs("disc.tri_seed"),
            "disc.neighbour_row.calls": calls["disc.neighbour_row"],
            "disc.neighbour_row.self_s": secs("disc.neighbour_row"),
            "morphisms.cm3.nodes": stats["cm3_nodes"],
            "morphisms.cm3.state_ratio": ratio(stats["cm3_states"], stats["cm3_nodes"]),
            "morphisms.cm3.self_s": secs("morphisms.cm3"),
            "morphisms.apply.calls": calls["morphisms.apply"],
            "morphisms.apply.self_s": secs("morphisms.apply"),
            "morphisms.nospec.self_s": secs("morphisms.nospec"),
            "colimits.ball.calls": calls["colimits.ball"],
            "colimits.ball.self_s": secs("colimits.ball"),
            "colimits.oracle_rows": calls["colimits.oracle_rows"],
            "colimits.inclusion.self_s": secs("colimits.inclusion"),
            "colimits.stable.self_s": secs("colimits.stable"),
            "colimits.stable.stage_index": ratio(
                stats["stable_stage_sum"], stats["stable_calls"]
            ),
            "cli.main.self_s": secs("cli.main"),
            "cli.load.self_s": secs("cli.load"),
            "cli.report_bytes": stats["report_bytes"],
        }

    def write_spans(self, path) -> None:
        fields = ("id", "name", "start_ns", "end_ns", "parent", "job")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
