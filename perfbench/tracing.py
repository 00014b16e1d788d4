"""Spans and counters around the public functions of each stabwit layer.

The wrappers live here, in the benchmark: each one rebinds the wrapped
name in every ``stabwit`` module that holds it, so calls between modules
and from the CLI go through the wrapper and the package source is left
as it is.  A span records (name, start, end, parent span, op); spans are
kept in memory and written out when the run ends.  A span's self time is
its duration minus the durations of its child spans, so the self times of
all spans of an op add up to the op's outermost span, ``cli.main``.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# restarts whose value is this close to their cut's best count as useful
USEFUL_ATOL = 1e-9
# layers with a layer.<name>.self_ms total; cli has a single span, so its
# total is cli.main.self_ms
LAYERS = ("pauli", "witnesses", "states", "measurement", "bisep")


class Tracer:
    """Records spans only while ``active`` is set, i.e. inside a timed op."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name id, start ns, end ns, parent, op]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.cut_values: list[list[float]] = []

    def wrap(self, name: str, fn, before=None, after=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, args, kwargs)
            record = [nid, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _dense_bytes_expectation(tracer, args, kwargs):
    # one Pauli application on the 2^n amplitudes per Pauli string
    op, state = _arg(args, kwargs, 0, "op"), _arg(args, kwargs, 1, "state")
    terms = getattr(op, "terms", None)
    applications = 1 if terms is None else len(terms)
    tracer.counts["states.dense_bytes_computed"] += 16 * (1 << state.n) * applications


def _dense_bytes_projector(tracer, args, kwargs):
    # every caller in the package passes the generators as a list
    s, gens = _arg(args, kwargs, 0, "s"), _arg(args, kwargs, 1, "gens")
    tracer.counts["states.dense_bytes_computed"] += 16 * (1 << s.n) * len(gens)


def _terms_built(tracer, args, kwargs, w):
    tracer.counts["witnesses.terms_built"] += len(w.terms)


def _distinct_outcomes(tracer, args, kwargs, table):
    tracer.counts["measurement.distinct_outcomes"] += len(table.counts)


def _cut_start(tracer, args, kwargs):
    tracer.cut_values.append([])


def _cut_end(tracer, args, kwargs, result):
    values = tracer.cut_values.pop()
    tracer.counts["bisep.useful_restarts"] += sum(
        abs(v - result.min_value) <= USEFUL_ATOL for v in values)


def _restart_end(tracer, args, kwargs, trace):
    tracer.counts["bisep.seesaw_iterations"] += trace.iterations
    tracer.counts["bisep.unconverged_restarts"] += not trace.converged
    if tracer.cut_values:
        tracer.cut_values[-1].append(trace.value)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of an imported stabwit package."""
    import stabwit
    from stabwit import bisep, cli, measurement, pauli, states, witnesses

    modules = [m for name, m in sys.modules.items()
               if name == "stabwit" or name.startswith("stabwit.")]

    def rebind(fn, wrapper):
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is fn]:
                setattr(module, attr, wrapper)

    functions = [
        (pauli.subgroup_product, "pauli.subgroup_product", None, None),
        (pauli.generators_for, "pauli.generators_for", None, None),
        (witnesses.build_witness, "witnesses.build_witness", None, _terms_built),
        (witnesses.noise_threshold, "witnesses.noise_threshold", None, None),
        (witnesses.noisy_target_expectation, "witnesses.noisy_target_expectation",
         None, None),
        (witnesses.target_state, "witnesses.target_state", None, None),
        (states.make_ghz, "states.make_state", None, None),
        (states.make_cluster, "states.make_state", None, None),
        (states.expectation, "states.expectation", _dense_bytes_expectation, None),
        (states.stabilizer_projector_expectation,
         "states.stabilizer_projector_expectation", _dense_bytes_projector, None),
        (measurement.outcome_distribution, "measurement.outcome_distribution",
         None, None),
        (measurement.sample_outcomes, "measurement.sample_outcomes", None,
         _distinct_outcomes),
        (measurement.estimate_witness, "measurement.estimate_witness", None, None),
        (bisep.certify, "bisep.certify", None, None),
        (bisep.min_over_cut, "bisep.min_over_cut", _cut_start, _cut_end),
        (bisep.see_saw_once, "bisep.see_saw_once", None, _restart_end),
        (cli.main, "cli.main", None, None),
    ]
    for fn, name, before, after in functions:
        rebind(fn, tracer.wrap(name, fn, before, after))

    table_cls = stabwit.CountsTable
    table_cls.save = tracer.wrap("measurement.counts_save", table_cls.save)
    load = vars(table_cls)["load"].__func__
    table_cls.load = classmethod(tracer.wrap("measurement.counts_load", load,
                                             after=_distinct_outcomes))


def self_times(tracer: Tracer) -> tuple[dict, Counter, int]:
    """Per-name self time (ns), per-name call counts, and the summed
    duration of the outermost spans."""
    spans = tracer.spans
    child = [0] * len(spans)
    for nid, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    own: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    root_ns = 0
    for i, (nid, start, end, parent, _) in enumerate(spans):
        name = tracer.names[nid]
        own[name] += end - start - child[i]
        calls[name] += 1
        if parent < 0:
            root_ns += end - start
    return own, calls, root_ns


def layer_metrics(tracer: Tracer, op_walls_ns: list[int], import_ns: int,
                  record_bytes: int) -> tuple[dict, bool]:
    """Per-op layer metrics, and whether self times plus unattributed time
    add up to the traced wall time."""
    nops = len(op_walls_ns)
    own, calls, root_ns = self_times(tracer)
    wall_ns = sum(op_walls_ns)
    unattributed_ns = wall_ns - root_ns
    counts = tracer.counts

    def ms(ns):
        return ns / 1e6 / nops

    def per_op(x):
        return x / nops

    m = {"stabwit.import_ms": import_ns / 1e6}
    for name in ("pauli.subgroup_product", "pauli.generators_for",
                 "witnesses.build_witness", "witnesses.target_state",
                 "states.make_state", "states.expectation",
                 "states.stabilizer_projector_expectation",
                 "measurement.outcome_distribution"):
        m[name + ".calls"] = per_op(calls[name])
    for name in ("pauli.subgroup_product", "witnesses.build_witness",
                 "witnesses.noise_threshold", "witnesses.noisy_target_expectation",
                 "states.make_state", "states.expectation",
                 "states.stabilizer_projector_expectation",
                 "measurement.outcome_distribution", "measurement.sample_outcomes",
                 "measurement.estimate_witness", "measurement.counts_save",
                 "measurement.counts_load", "bisep.see_saw_once",
                 "bisep.min_over_cut", "bisep.certify", "cli.main"):
        m[name + ".self_ms"] = ms(own[name])
    for name in ("witnesses.terms_built", "states.dense_bytes_computed",
                 "measurement.distinct_outcomes", "bisep.seesaw_iterations",
                 "bisep.unconverged_restarts"):
        m[name] = per_op(counts[name])
    restarts = calls["bisep.see_saw_once"]
    m["bisep.cuts"] = per_op(calls["bisep.min_over_cut"])
    m["bisep.restarts"] = per_op(restarts)
    m["bisep.useful_restart_ratio"] = counts["bisep.useful_restarts"] / restarts if restarts else 0.0
    m["cli.record_bytes"] = per_op(record_bytes)

    by_layer: dict[str, int] = defaultdict(int)
    for name, ns in own.items():
        by_layer[name.split(".")[0]] += ns
    for layer in LAYERS:
        m[f"layer.{layer}.self_ms"] = ms(by_layer[layer])
    m["layer.unattributed.self_ms"] = ms(unattributed_ns)
    m["trace.op_wall_ms"] = ms(wall_ns)
    balanced = sum(by_layer.values()) + unattributed_ns == wall_ns
    return m, balanced


def write_trace(path: Path, tracer: Tracer, header: dict, ops: list) -> None:
    """Spans as one JSON array per line after a header line."""
    with path.open("w") as fh:
        fh.write(json.dumps(dict(header, names=tracer.names,
                                 span_fields=["name", "start_ns", "end_ns",
                                              "parent", "op"],
                                 ops=ops)) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
