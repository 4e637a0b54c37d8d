"""Span recorder for the traced benchmark run.

The recorder wraps public functions of ``chanorder`` under the names their
callers look them up by (``dmc.solve_feasibility`` is the simplex as ``dmc``
calls it), so no file under ``src/`` changes.  Each call leaves one span in
memory: name, start, end, parent span and query id.  Per-layer metrics are
derived from the spans after the run: inclusive busy time, self time (busy
time minus the time covered by child spans), call counts, and counters read
from the arguments and results at the same boundaries.
"""

from __future__ import annotations

import inspect
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

WORKLOADS = ("dmc-large", "families", "cli")
_ALL = frozenset(WORKLOADS)
_IN_FAMILIES_AND_CLI = frozenset({"families", "cli"})
_IN_FAMILIES = frozenset({"families"})
_IN_CLI = frozenset({"cli"})

# Layers whose self time is reported; "query" is the benchmark's own root
# span per query, so its self time is work no hooked function accounts for.
LAYERS = ("query", "dmc", "numerics", "noise", "phase", "lgc", "cli")

# Query kinds whose share of the traced busy time is reported.
QUERY_KINDS = ("dmc", "noise", "phase", "lgc", "ensemble")


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_products(counters, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    better, (n2, m2) = a["better"], a["worse_shape"]
    columns = len(result[1])
    counters["dmc.degradation_products.pairs"] += better.n_inputs ** int(n2) * int(m2) ** better.n_outputs
    counters["dmc.degradation_products.columns"] += columns
    counters["dmc.degradation_products.bytes"] += columns * int(n2) * int(m2) * 8


def _count_simplex_columns(counters, fn, args, kwargs, result):
    counters["numerics.solve_feasibility.columns"] += _bound(fn, args, kwargs)["problem"].n_columns


def _count_codebooks(counters, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    sequences = a["channel"].n_inputs ** int(a["block_length"])
    counters["dmc.best_error_probability.codebooks"] += sequences ** int(a["n_messages"])


def _count_samples(counters, fn, args, kwargs, result):
    counters["lgc.ensemble_from_sampler.samples"] += int(_bound(fn, args, kwargs)["n_samples"])


def _count_document_bytes(counters, fn, args, kwargs, result):
    counters["cli.load_document.bytes"] += os.path.getsize(_bound(fn, args, kwargs)["path"])


# (module, attribute, span name, counter, workloads that must call it).
# The attribute is the name the calling code looks up at call time; the span
# name says which layer the function belongs to.
HOOKS = (
    ("dmc", "from_json_dict", "dmc.from_json_dict", None, _ALL),
    ("dmc", "includes", "dmc.includes", None, _ALL),
    ("dmc", "degradation_products", "dmc.degradation_products", _count_products, _ALL),
    ("dmc", "solve_feasibility", "numerics.solve_feasibility", _count_simplex_columns, _ALL),
    ("dmc", "equivalent", "dmc.equivalent", None, _IN_CLI),
    ("dmc", "degrade", "dmc.degrade", None, _IN_CLI),
    ("dmc", "best_error_probability", "dmc.best_error_probability", _count_codebooks,
     _IN_FAMILIES_AND_CLI),
    ("noise", "from_json_dict", "noise.from_json_dict", None, _IN_FAMILIES_AND_CLI),
    ("noise", "to_json_dict", "noise.to_json_dict", None, _IN_CLI),
    ("noise", "check_order", "noise.check_order", None, _IN_FAMILIES_AND_CLI),
    ("noise", "lub", "noise.lub", None, _IN_FAMILIES_AND_CLI),
    ("noise", "glb", "noise.glb", None, _IN_FAMILIES_AND_CLI),
    ("noise", "profile_sum", "noise.profile_sum", None, _IN_FAMILIES),
    ("noise", "log_cf", "noise.log_cf", None, _IN_FAMILIES_AND_CLI),
    ("noise", "variance", "noise.variance", None, _IN_FAMILIES_AND_CLI),
    ("phase", "from_wrapped", "phase.from_wrapped", None, _IN_FAMILIES_AND_CLI),
    ("phase", "product_channel", "phase.product_channel", None, _IN_FAMILIES_AND_CLI),
    ("phase", "joint_from_marginals", "phase.joint_from_marginals", None, _IN_FAMILIES),
    ("phase", "degradation_coeffs", "phase.degradation_coeffs", None, _IN_FAMILIES),
    ("phase", "degrade", "phase.degrade", None, _IN_FAMILIES_AND_CLI),
    ("phase", "is_strict", "phase.is_strict", None, _IN_FAMILIES_AND_CLI),
    ("phase", "worst_channel", "phase.worst_channel", None, _IN_CLI),
    ("phase", "from_json_dict", "phase.from_json_dict", None, _IN_FAMILIES_AND_CLI),
    ("phase", "to_json_dict", "phase.to_json_dict", None, _IN_FAMILIES_AND_CLI),
    ("phase.TorusSpectrum", "__post_init__", "phase.validate", None, _IN_FAMILIES_AND_CLI),
    ("lgc", "from_json_dict", "lgc.from_json_dict", None, _IN_FAMILIES_AND_CLI),
    ("lgc", "ensemble_from_json_dict", "lgc.ensemble_from_json_dict", None, _IN_CLI),
    ("lgc", "canonicalize", "lgc.canonicalize", None, _IN_FAMILIES_AND_CLI),
    ("lgc", "inverse_sqrt_spd", "numerics.inverse_sqrt_spd", None, _IN_FAMILIES_AND_CLI),
    ("lgc", "singular_values", "numerics.singular_values", None, _IN_FAMILIES_AND_CLI),
    ("lgc", "includes", "lgc.includes", None, _IN_FAMILIES_AND_CLI),
    ("lgc", "lub", "lgc.lub", None, _IN_FAMILIES_AND_CLI),
    ("lgc", "glb", "lgc.glb", None, _IN_FAMILIES_AND_CLI),
    ("lgc", "verify_equivalence_transform", "lgc.verify_equivalence_transform", None,
     _IN_FAMILIES_AND_CLI),
    ("lgc", "sample_haar_orthogonal", "lgc.sample_haar_orthogonal", None, _IN_FAMILIES_AND_CLI),
    ("lgc", "ensemble_from_sampler", "lgc.ensemble_from_sampler", _count_samples, _IN_FAMILIES),
    ("lgc", "ensemble_order", "lgc.ensemble_order", None, _IN_FAMILIES_AND_CLI),
    ("lgc", "ensemble_lub", "lgc.ensemble_lub", None, _IN_FAMILIES),
    ("cli", "run", "cli.run", None, _IN_CLI),
    ("cli", "load_document", "cli.load_document", _count_document_bytes, _IN_CLI),
    # cli.load_document finds the parsers through its own table.
    ("cli._LOADERS", "dmc", "dmc.from_json_dict", None, _IN_CLI),
    ("cli._LOADERS", "kfunction", "noise.from_json_dict", None, _IN_CLI),
    ("cli._LOADERS", "torus", "phase.from_json_dict", None, _IN_CLI),
    ("cli._LOADERS", "lgc", "lgc.from_json_dict", None, _IN_CLI),
    ("cli._LOADERS", "lgc_ensemble", "lgc.ensemble_from_json_dict", None, _IN_CLI),
)

# Per-layer metrics read from spans: (metric, unit, statistic, span names).
SPAN_METRICS = (
    ("dmc.includes.calls", "count", "calls", ("dmc.includes",)),
    ("dmc.includes.busy_s", "s", "busy", ("dmc.includes",)),
    ("dmc.includes.self_s", "s", "self", ("dmc.includes",)),
    ("dmc.degradation_products.busy_s", "s", "busy", ("dmc.degradation_products",)),
    ("dmc.best_error_probability.busy_s", "s", "busy", ("dmc.best_error_probability",)),
    ("dmc.from_json_dict.busy_s", "s", "busy", ("dmc.from_json_dict",)),
    ("numerics.solve_feasibility.calls", "count", "calls", ("numerics.solve_feasibility",)),
    ("numerics.solve_feasibility.busy_s", "s", "busy", ("numerics.solve_feasibility",)),
    ("numerics.inverse_sqrt_spd.busy_s", "s", "busy", ("numerics.inverse_sqrt_spd",)),
    ("numerics.singular_values.busy_s", "s", "busy", ("numerics.singular_values",)),
    ("noise.check_order.busy_s", "s", "busy", ("noise.check_order",)),
    ("noise.lattice.busy_s", "s", "busy", ("noise.lub", "noise.glb", "noise.profile_sum")),
    ("noise.log_cf.busy_s", "s", "busy", ("noise.log_cf",)),
    ("noise.from_json_dict.busy_s", "s", "busy", ("noise.from_json_dict",)),
    ("phase.validate.calls", "count", "calls", ("phase.validate",)),
    ("phase.validate.busy_s", "s", "busy", ("phase.validate",)),
    ("phase.product_channel.busy_s", "s", "busy", ("phase.product_channel",)),
    ("phase.degradation_coeffs.busy_s", "s", "busy", ("phase.degradation_coeffs",)),
    ("phase.degrade.busy_s", "s", "busy", ("phase.degrade",)),
    ("phase.is_strict.busy_s", "s", "busy", ("phase.is_strict",)),
    ("phase.from_json_dict.busy_s", "s", "busy", ("phase.from_json_dict",)),
    ("phase.to_json_dict.busy_s", "s", "busy", ("phase.to_json_dict",)),
    ("lgc.canonicalize.busy_s", "s", "busy", ("lgc.canonicalize",)),
    ("lgc.ensemble_from_sampler.busy_s", "s", "busy", ("lgc.ensemble_from_sampler",)),
    ("lgc.ensemble_from_sampler.self_s", "s", "self", ("lgc.ensemble_from_sampler",)),
    ("lgc.sample_haar_orthogonal.calls", "count", "calls", ("lgc.sample_haar_orthogonal",)),
    ("lgc.sample_haar_orthogonal.busy_s", "s", "busy", ("lgc.sample_haar_orthogonal",)),
    ("lgc.ensemble_order.busy_s", "s", "busy", ("lgc.ensemble_order",)),
    ("lgc.ensemble_lattice.busy_s", "s", "busy", ("lgc.ensemble_lub",)),
    ("cli.run.busy_s", "s", "busy", ("cli.run",)),
    ("cli.load_document.busy_s", "s", "busy", ("cli.load_document",)),
)

COUNTER_METRICS = (
    ("dmc.degradation_products.pairs", "count"),
    ("dmc.degradation_products.columns", "count"),
    ("dmc.degradation_products.bytes", "B"),
    ("numerics.solve_feasibility.columns", "count"),
    ("dmc.best_error_probability.codebooks", "count"),
    ("lgc.ensemble_from_sampler.samples", "count"),
    ("cli.load_document.bytes", "B"),
)


class Recorder:
    """In-memory span store; one span per call of a hooked function.

    A span is ``[name, start, end, parent_index, query_id]`` with
    ``parent_index`` -1 for a root.  Single-threaded by design: the
    benchmark runs one query at a time.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.query_id = -1
        self.paused = False
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.query_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def query(self, query_id: int, kind: str):
        """Root span around one query; hooked calls inside become its children."""
        self.query_id = query_id
        span = self._open(f"query.{kind}")
        span[1] = perf_counter()
        try:
            yield
        finally:
            self._close(span)

    @contextmanager
    def pause(self):
        """Calls made inside (the output checker's) record no spans."""
        previous, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = previous

    def wrap(self, name: str, fn, counter=None):
        recorder = self

        def traced(*args, **kwargs):
            if recorder.paused:
                return fn(*args, **kwargs)
            span = recorder._open(name)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(span)
            if counter is not None:
                counter(recorder.counters, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def write(self, path: str) -> None:
        """Write the spans out as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, query in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "query": query}
                ) + "\n")


def _resolve(modules: dict, owner: str):
    head, _, rest = owner.partition(".")
    obj = modules[head]
    return getattr(obj, rest) if rest else obj


@contextmanager
def installed(recorder: Recorder, modules: dict):
    """Replace every hooked attribute by a recording wrapper, then restore.

    ``modules`` maps the short module names used in ``HOOKS`` to the
    imported ``chanorder`` submodules.  A hooked name missing from the
    program is skipped; it then records zero calls and is flagged.
    """
    originals = []
    try:
        for owner_name, attr, span_name, counter, _ in HOOKS:
            owner = _resolve(modules, owner_name)
            if isinstance(owner, dict):
                fn = owner.get(attr)
            elif isinstance(owner, type):
                fn = owner.__dict__.get(attr)
            else:
                fn = getattr(owner, attr, None)
            if fn is None:
                continue
            originals.append((owner, attr, fn))
            _set(owner, attr, recorder.wrap(span_name, fn, counter))
        yield recorder
    finally:
        for owner, attr, fn in reversed(originals):
            _set(owner, attr, fn)


def _set(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so children never overlap each other and the
    time they cover is the sum of their durations.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def zero_call_flags(spans: list[list], workload: str) -> list[str]:
    """Hooked span names the layer map expects on this workload but never saw."""
    seen = {span[0] for span in spans}
    return sorted(
        {name for _, _, name, _, expected in HOOKS if workload in expected and name not in seen}
    )


def layer_metrics(recorder: Recorder, workload: str) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, as ``name -> (value, unit)``."""
    spans = recorder.spans
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    self_by_name: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _), own_time in zip(spans, own):
        calls[name] += 1
        busy[name] += end - start
        self_by_name[name] += own_time

    stats = {"calls": calls, "busy": busy, "self": self_by_name}
    out: dict[str, tuple[float, str]] = {}
    for metric, unit, statistic, names in SPAN_METRICS:
        out[metric] = (float(sum(stats[statistic][n] for n in names)), unit)
    for metric, unit in COUNTER_METRICS:
        out[metric] = (float(recorder.counters[metric]), unit)
    pairs = recorder.counters["dmc.degradation_products.pairs"]
    columns = recorder.counters["dmc.degradation_products.columns"]
    out["dmc.degradation_products.useful_ratio"] = (columns / pairs if pairs else 0.0, "ratio")

    for layer in LAYERS:
        total = sum(t for name, t in self_by_name.items() if name.split(".", 1)[0] == layer)
        out[f"layer.{layer}.self_s"] = (float(total), "s")
    roots = sum(busy[f"query.{kind}"] for kind in QUERY_KINDS)
    for kind in QUERY_KINDS:
        share = busy[f"query.{kind}"] / roots if roots else 0.0
        out[f"query.{kind}.share"] = (float(share), "ratio")
    out["trace.spans"] = (float(len(spans)), "count")
    out["trace.zero_call_flags"] = (float(len(zero_call_flags(spans, workload))), "count")
    return out
