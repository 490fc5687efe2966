"""Spans around the library's public names, and the per-layer metrics built from them.

The tracer replaces each public function with a wrapper under the name
the calling module looks it up by (``multibattle.simulate.settle_turn``,
``multibattle.strategy.closed_form``, ...), so calls made inside the
library are caught as well as the benchmark's own. Every call becomes a
span (id, name, start, end, parent id, job id) kept in memory; spans are
written out when the benchmark ends. The benchmark runs one job at a time
in one thread, so nothing queues: a layer's cost is its busy time and its
self time, which is its spans' time minus the part their child spans
cover.
"""

from __future__ import annotations

import gzip
import statistics
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "matrices", "strategy", "core", "oracle", "simulate")


def _matrix_kind(args, kwargs):
    """build_matrix(variant, n, exact=False) -> "exact" or "float"."""
    return "exact" if kwargs.get("exact", args[2] if len(args) > 2 else False) else "float"


def _build_matrix_name(args, kwargs):
    return f"matrices.build_matrix.{_matrix_kind(args, kwargs)}"


def _build_matrix_counts(counts, args, kwargs, result):
    variant, n = args[0], args[1]
    counts[f"matrices.entries_{_matrix_kind(args, kwargs)}"] += n * (n + 1) // 2 if variant.is_triangular else n * n


def _nodes(counts, args, kwargs, result):
    counts["oracle.nodes_expanded"] += result.nodes_expanded


def _turns(counts, args, kwargs, result):
    counts["simulate.turns"] += len(result.turns)


def _states(counts, args, kwargs, result):
    counts["simulate.sweep.states"] += result.states_explored


def targets(mb):
    """(span name, owners, attribute, count hook) for every traced public name.

    ``mb`` holds the package's modules. Owners are the modules (or, for
    methods, classes) through which the name is looked up at call time.
    A span name may be a function of the call's arguments.
    """
    cli, core, matrices, oracle = mb.cli, mb.core, mb.matrices, mb.oracle
    simulate, strategy = mb.simulate, mb.strategy
    return [
        ("cli.main", [cli], "main", None),
        (_build_matrix_name, [matrices, strategy, simulate, cli], "build_matrix", _build_matrix_counts),
        ("matrices.closed_form", [matrices, strategy], "closed_form", None),
        ("matrices.obr", [matrices, cli], "obr", None),
        ("matrices.handicap_obr", [matrices, cli], "handicap_obr", None),
        ("matrices.verify_matrix", [matrices, cli], "verify_matrix", None),
        ("strategy.optimal_bid_fraction", [strategy, simulate, cli], "optimal_bid_fraction", None),
        ("strategy.next_bid", [simulate], "next_bid", None),
        ("strategy.observe_outcome", [simulate], "observe_outcome", None),
        ("strategy.fresh", [strategy.StrategyState], "fresh", None),
        ("core.settle_turn", [simulate], "settle_turn", None),
        ("core.to_json", [core.GameTrace], "to_json", None),
        ("oracle.min_winning_budget", [oracle, cli], "min_winning_budget", _nodes),
        ("oracle.evaluate", [oracle, cli], "evaluate", _nodes),
        ("oracle.adversary.choose_value", [simulate.OmnipotentAdversary], "choose_value", None),
        ("oracle.adversary.choose_bid", [simulate.OmnipotentAdversary], "choose_bid", None),
        ("simulate.run_game", [simulate, cli], "run_game", _turns),
        ("simulate.sweep", [simulate], "exhaustive_adversary_check", _states),
    ]


class Tracer:
    """Installs span wrappers on enter and restores the originals on exit."""

    def __init__(self, mb):
        self._targets = targets(mb)
        self._saved = []
        self._stack: list[int] = []
        self._next_id = 0
        self.job_id = -1
        self.recording = True
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()

    def reset(self):
        self._next_id = 0
        self.spans = []
        self.counts = Counter()

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.spans.append((sid, span_name, t0, t1, parent, self.job_id))
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def span(self, name, fn, *args):
        """Run ``fn(*args)`` as a span of its own (the benchmark's job spans)."""
        return self._wrap(name, fn, None)(*args)

    def __enter__(self):
        for name, owners, attr, hook in self._targets:
            for owner in owners:
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__, hook))
                else:
                    wrapped = self._wrap(name, original, hook)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        return False

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent,job\n")
            for sid, name, t0, t1, parent, job in self.spans:
                fh.write(f"{sid},{name},{t0:.9f},{t1:.9f},{parent},{job}\n")


def summarize(spans, counts, job_scale) -> tuple[dict, dict]:
    """Per-pass (times, counts) from one pass's spans and boundary counters.

    Each span's duration is multiplied by its job's ``job_scale`` entry, the
    host-speed correction the benchmark applies to that job's latency, so
    layer times are in the same corrected seconds as the end-to-end ones.
    Counts must repeat exactly between passes at one seed.
    """
    dur = {sid: (t1 - t0) * job_scale[job] for sid, _name, t0, t1, _parent, job in spans}
    child = defaultdict(float)
    for sid, _name, _t0, _t1, parent, _job in spans:
        if parent >= 0:
            child[parent] += dur[sid]
    busy = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    for sid, name, _t0, _t1, _parent, _job in spans:
        busy[name] += dur[sid]
        own[name] += dur[sid] - child[sid]
        calls[name] += 1
    layer_self = defaultdict(float)
    for name, s in own.items():
        layer_self[name.split(".")[0]] += s
    total = sum(layer_self.values())
    times = {}
    for layer in LAYERS + ("bench",):
        times[f"{layer}.self_s"] = layer_self[layer]
        times[f"{layer}.self_share"] = layer_self[layer] / total if total else 0.0
    for name in busy:
        times[f"{name}.busy_s"] = busy[name]
        times[f"{name}.self_s"] = own[name]
    exact_counts = {f"{name}.calls": n for name, n in calls.items()}
    exact_counts.update(counts)
    return times, exact_counts


def per_layer_metrics(passes, overhead_frac) -> dict:
    """The BENCHMARK.json per-layer metrics: counts of one pass, times median over the traced passes."""
    times = {k: statistics.median(p[0].get(k, 0.0) for p in passes) for k in passes[0][0]}
    counts = passes[0][1]

    def t(name):
        return times.get(name, 0.0)

    def c(name):
        return counts.get(name, 0)

    def ratio(num, den, scale):
        return num * scale / den if den else 0.0

    m = {
        "cli.calls": (c("cli.main.calls"), "count"),
        "cli.self_s": (t("cli.self_s"), "s"),
        "matrices.build_matrix.calls": (
            c("matrices.build_matrix.exact.calls") + c("matrices.build_matrix.float.calls"), "count"),
        "matrices.build_matrix.busy_s": (
            t("matrices.build_matrix.exact.busy_s") + t("matrices.build_matrix.float.busy_s"), "s"),
        "matrices.entries_exact": (c("matrices.entries_exact"), "count"),
        "matrices.entries_float": (c("matrices.entries_float"), "count"),
        "matrices.exact_ns_per_entry": (
            ratio(t("matrices.build_matrix.exact.busy_s"), c("matrices.entries_exact"), 1e9), "ns"),
        "matrices.float_ns_per_entry": (
            ratio(t("matrices.build_matrix.float.busy_s"), c("matrices.entries_float"), 1e9), "ns"),
        "matrices.verify_matrix.busy_s": (t("matrices.verify_matrix.busy_s"), "s"),
        "matrices.obr.busy_s": (t("matrices.obr.busy_s") + t("matrices.handicap_obr.busy_s"), "s"),
        "matrices.closed_form.calls": (c("matrices.closed_form.calls"), "count"),
        "strategy.optimal_bid_fraction.calls": (c("strategy.optimal_bid_fraction.calls"), "count"),
        "strategy.optimal_bid_fraction.us_per_call": (
            ratio(t("strategy.optimal_bid_fraction.busy_s"), c("strategy.optimal_bid_fraction.calls"), 1e6),
            "us"),
        "strategy.next_bid.us_per_call": (
            ratio(t("strategy.next_bid.busy_s"), c("strategy.next_bid.calls"), 1e6), "us"),
        "strategy.observe_outcome.us_per_call": (
            ratio(t("strategy.observe_outcome.busy_s"), c("strategy.observe_outcome.calls"), 1e6), "us"),
        "strategy.fresh.busy_s": (t("strategy.fresh.busy_s"), "s"),
        "core.settle_turn.calls": (c("core.settle_turn.calls"), "count"),
        "core.settle_turn.us_per_call": (
            ratio(t("core.settle_turn.busy_s"), c("core.settle_turn.calls"), 1e6), "us"),
        "core.to_json.busy_s": (t("core.to_json.busy_s"), "s"),
    }
    search_s = t("oracle.min_winning_budget.busy_s") + t("oracle.evaluate.busy_s")
    m.update({
        "oracle.search.busy_s": (search_s, "s"),
        "oracle.nodes_expanded": (c("oracle.nodes_expanded"), "count"),
        "oracle.ns_per_node": (ratio(search_s, c("oracle.nodes_expanded"), 1e9), "ns"),
        "oracle.adversary.busy_s": (
            t("oracle.adversary.choose_value.busy_s") + t("oracle.adversary.choose_bid.busy_s"), "s"),
        "simulate.run_game.calls": (c("simulate.run_game.calls"), "count"),
        "simulate.run_game.self_s": (t("simulate.run_game.self_s"), "s"),
        "simulate.turns": (c("simulate.turns"), "count"),
        "simulate.us_per_turn": (ratio(t("simulate.run_game.busy_s"), c("simulate.turns"), 1e6), "us"),
        "simulate.sweep.busy_s": (t("simulate.sweep.busy_s"), "s"),
        "simulate.sweep.states": (c("simulate.sweep.states"), "count"),
        "simulate.sweep.us_per_state": (
            ratio(t("simulate.sweep.busy_s"), c("simulate.sweep.states"), 1e6), "us"),
    })
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (t(f"{layer}.self_share"), "frac")
    m["trace.overhead_frac"] = (overhead_frac, "frac")
    return m
