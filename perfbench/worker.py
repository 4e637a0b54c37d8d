"""Run one benchmark workload in a fresh process.

Started by ``run.py``, one process per set-up or measurement::

    python3 perfbench/worker.py --workload families --seed 1 --seconds 15 --mode run

BLAS and OpenMP are pinned to one thread before numpy is imported, and
``chanorder`` is imported from the checkout's own ``src/``.  The worker
prints ``setup-done`` once set-up (import, input generation, warm-up) has
finished; ``--mode setup`` then times a few machine-speed gauges, prints
them as a JSON line and stops.  Set-up makes the inputs of the
first block (``cli``: writes all its documents) and warms up on a tiny copy
of the workload, one query of each kind.  ``--mode run`` then runs the timed
closed loop; ``--mode trace`` runs it too, followed by an untraced and a
traced replay of the same queries.  The last line is a JSON result.
"""

from __future__ import annotations

import os
import sys

PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import chanorder  # noqa: E402
from chanorder import cli, dmc, lgc, noise, numerics, phase  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(ROOT, "perfbench", "out")
MODULES = {"dmc": dmc, "noise": noise, "phase": phase, "lgc": lgc, "numerics": numerics, "cli": cli}
STARTUP_PROBES = 5
# The machine's speed is gauged once per GAUGE_EVERY_S of timed wall time,
# off the clock, and the end-to-end figures are scaled to a machine on which
# one gauge_seconds(1) takes GAUGE_NOMINAL_S (see machine_slowdown).
GAUGE_EVERY_S = 0.1
GAUGE_NOMINAL_S = 0.008
SETUP_GAUGES = 8


def _check_source_tree() -> None:
    found = os.path.realpath(chanorder.__file__)
    if not found.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"chanorder was imported from {found}, not from {SRC}")


def _blas() -> dict:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False)
    except OSError:
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """Hash of every file under src/chanorder, so a checkout without git is identified too."""
    h = hashlib.sha256()
    package = os.path.join(SRC, "chanorder")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                h.update(name.encode() + b"\0" + handle.read())
    return h.hexdigest()


def gauge_seconds(size: int = 4) -> float:
    """Wall time of a fixed pure-Python and numpy computation (``size`` = 4: ~30 ms).

    Not a metric of the program: a gauge of how fast the machine runs at
    the moment.
    """
    t = perf_counter()
    total = 0
    for i in range(50_000 * size):
        total += i * i
    a = np.eye(64) + np.outer(np.arange(64.0), np.ones(64)) / 64
    for _ in range(25 * size):
        a = np.linalg.qr(a)[0] + 0.5 * np.eye(64)
    return perf_counter() - t


def reference_seconds(repeats: int = 5) -> float:
    """Median of ``repeats`` gauges, so that runs made at different times can be compared."""
    return statistics.median(gauge_seconds() for _ in range(repeats))


def environment() -> dict:
    """Environment header recorded in every result; taken after the timed loop."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {var: os.environ.get(var) for var in PINNED_THREADS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "reference_s": reference_seconds(),
    }


class Pass:
    """Outcome of one pass over the queries.

    Timed wall time is the time spent inside queries; the loop's own
    bookkeeping, block generation and output checks are off the clock.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.passed: list[bool] = []
        self.failures: list[str] = []
        self.block_ends: list[int] = []
        self.gauges: list[float] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def completed(self) -> int:
        return sum(self.passed)

    @property
    def blocks(self) -> int:
        return len(self.block_ends)

    def per_block(self):
        """(latencies, passed) of each block in turn."""
        start = 0
        for end in self.block_ends:
            yield self.latencies[start:end], self.passed[start:end]
            start = end


def run_pass(workload, execute, check, seconds=None, blocks=None, recorder=None) -> Pass:
    """Closed loop, one query at a time, over whole blocks.

    With ``seconds`` the loop ends at the first block boundary after that
    much timed wall time and at least ``workload.min_queries`` queries; with
    ``blocks`` it runs exactly that many.
    """
    result = Pass()
    elapsed = gauged = 0.0
    index = 0
    while True:
        if blocks is not None and index >= blocks:
            break
        if seconds is not None and index > 0 and (
            elapsed >= seconds and result.attempted >= workload.min_queries
        ):
            break
        for query in workload.block(index):
            query_id = result.attempted
            t0 = perf_counter()
            try:
                if recorder is None:
                    output = execute(query)
                else:
                    with recorder.query(query_id, query.kind):
                        output = execute(query)
                error = None
            except Exception as exc:  # a raising query is a failed query, never a crash
                output, error = None, f"raised {type(exc).__name__}: {exc}"
            latency = perf_counter() - t0
            elapsed += latency
            while elapsed - gauged >= GAUGE_EVERY_S:
                result.gauges.append(gauge_seconds(1))
                gauged += GAUGE_EVERY_S
            if error is not None:
                problems = [error]
            elif recorder is None:
                problems = check(query, output)
            else:
                with recorder.pause():
                    problems = check(query, output)
            result.latencies.append(latency)
            result.kinds.append(query.kind)
            result.passed.append(not problems)
            if problems:
                result.failures.append(f"block {index} query {query_id} ({query.kind}): " + "; ".join(problems))
        result.block_ends.append(result.attempted)
        index += 1
    return result


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


_QUANTILE_GRID = 20_000


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile of ``values``.

    A mean of all order statistics weighted by the Beta(p(n+1), (1-p)(n+1))
    distribution, instead of one or two of them: with a few dozen queries
    per block, the plain percentile of a block follows the jitter of the
    one or two queries it lands on.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    grid = (np.arange(_QUANTILE_GRID) + 0.5) / _QUANTILE_GRID
    density = np.exp((a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid))
    cdf = np.concatenate([[0.0], np.cumsum(density)])
    cdf /= cdf[-1]
    weights = np.diff(cdf[np.rint(np.arange(n + 1) * _QUANTILE_GRID / n).astype(int)])
    return float(weights @ x)


def block_medians(measured: Pass) -> dict:
    """Throughput and latency percentiles per block, and their medians over blocks.

    Every block has the same mix of query kinds, so each block gives one
    sample of each figure; the median over blocks keeps a burst of
    machine noise that slows a few blocks from moving the result.
    """
    ops, p50, p90 = [], [], []
    for latencies, passed in measured.per_block():
        ops.append(sum(passed) / sum(latencies))
        p50.append(quantile(latencies, 0.5) * 1e3)
        p90.append(quantile(latencies, 0.9) * 1e3)
    return {"ops_per_s": statistics.median(ops),
            "latency_p50_ms": statistics.median(p50),
            "latency_p90_ms": statistics.median(p90)}


def machine_slowdown(gauges) -> float:
    """How much slower than nominal the machine ran: mean gauge time / GAUGE_NOMINAL_S.

    The host's speed swings by up to 1.6x within seconds and drifts from
    minute to minute; the gauges are spread over the run in proportion to
    timed wall time, so their mean (the top and bottom tenth cut off) is the
    run's average slowdown.
    """
    x = np.sort(np.asarray(gauges, dtype=float))
    cut = len(x) // 10
    return float(x[cut:len(x) - cut].mean()) / GAUGE_NOMINAL_S


def end_to_end(measured: Pass, children: bool) -> tuple[dict, dict]:
    """The end-to-end metrics, scaled to the nominal machine speed, and the measured figures."""
    n = measured.attempted
    raw = block_medians(measured)
    slowdown = machine_slowdown(measured.gauges or [gauge_seconds(1)])  # a run shorter than one gauge period
    metrics = {
        "ops_per_s": (raw["ops_per_s"] * slowdown, "1/s", n),
        "latency_p50_ms": (raw["latency_p50_ms"] / slowdown, "ms", n),
        "latency_p90_ms": (raw["latency_p90_ms"] / slowdown, "ms", n),
        "success_ratio": (measured.completed / n, "ratio", n),
        "peak_rss_mb": (_peak_rss_mb(children), "MB", 1),
    }
    return metrics, dict(raw, slowdown=slowdown, gauges=len(measured.gauges))


def startup_seconds(env: dict) -> float:
    """Median wall time of a process that only imports chanorder.cli."""
    times = []
    for _ in range(STARTUP_PROBES):
        t = perf_counter()
        subprocess.run([sys.executable, "-c", "import chanorder.cli"], env=env, check=True, timeout=60)
        times.append(perf_counter() - t)
    return statistics.median(times)


def per_layer(workload, measured: Pass) -> tuple[dict, list[Pass], tracing.Recorder]:
    """Untraced and traced replays of the measured queries, and the layer metrics."""
    blocks = measured.blocks
    if type(workload).replay is type(workload).run:
        untraced = measured
    else:
        untraced = run_pass(workload, workload.replay, workload.check, blocks=blocks)
    recorder = tracing.Recorder()
    with tracing.installed(recorder, MODULES):
        traced = run_pass(workload, workload.replay, workload.check, blocks=blocks,
                          recorder=recorder)
    metrics = {name: (value, unit, traced.attempted)
               for name, (value, unit) in tracing.layer_metrics(recorder, workload.name).items()}
    overhead = block_medians(traced)["ops_per_s"] - block_medians(untraced)["ops_per_s"]
    metrics["trace.overhead_ops_per_s"] = (overhead, "1/s", traced.attempted)

    env = dict(os.environ, PYTHONPATH=SRC)
    metrics["cli.startup_s"] = (startup_seconds(env), "s", STARTUP_PROBES)
    processes = workload.name == "cli"  # only there is each timed query a process
    for group in ("dmc", "noise", "phase", "lgc"):
        own = [t for t, kind in zip(measured.latencies, measured.kinds) if processes and kind == group]
        metrics[f"cli.{group}.process_s"] = (statistics.median(own) if own else 0.0, "s", len(own))
    extra = [] if untraced is measured else [untraced]
    return metrics, extra + [traced], recorder


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for smoke tests")
    args = parser.parse_args(argv)
    _check_source_tree()

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir:
        warm_dir = os.path.join(workdir, "warm")
        os.mkdir(warm_dir)
        warm = workloads.make(args.workload, args.seed + 1, tiny=True, workdir=warm_dir)
        workload = workloads.make(args.workload, args.seed, tiny=args.tiny, workdir=workdir)
        return _measure(workload, warm, args)


def warm_up(workload) -> Pass:
    """One query of each kind, run and checked, before the clock starts.

    Pays for lazy imports, first-call set-up inside numpy and a cold page
    cache, which every later query would otherwise not see again.
    """
    result = Pass()
    seen = set()
    for query in workload.block(0):
        if query.kind in seen:
            continue
        seen.add(query.kind)
        t0 = perf_counter()
        try:
            problems = workload.check(query, workload.run(query))
        except Exception as exc:  # counted and printed like any failed query
            problems = [f"raised {type(exc).__name__}: {exc}"]
        result.latencies.append(perf_counter() - t0)
        result.kinds.append(query.kind)
        result.passed.append(not problems)
        if problems:
            result.failures.append(f"warm-up ({query.kind}): " + "; ".join(problems))
    result.block_ends.append(result.attempted)
    return result


def _measure(workload, warm, args) -> int:
    workload.block(0)  # the first block's inputs are made in set-up, the rest off the clock
    warm_pass = warm_up(warm)
    print("setup-done", flush=True)
    setup_slowdown = machine_slowdown([gauge_seconds(1) for _ in range(SETUP_GAUGES)])
    if args.mode == "setup":
        print(json.dumps({"setup_slowdown": setup_slowdown}), flush=True)
        return 0

    measured = run_pass(workload, workload.run, workload.check, seconds=args.seconds)
    passes = [warm_pass, measured]
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "env": environment(),
        "input_sha256": workload.digest(1),
        "blocks": measured.blocks,
        "known_defects": workloads.known_defects(),
        "setup_slowdown": setup_slowdown,
    }
    if args.mode == "run":
        result["metrics"], result["measured"] = end_to_end(measured, children=workload.name == "cli")
        result["gauges_s"] = measured.gauges
        result["block_ops_per_s"] = [sum(passed) / sum(latencies)
                                     for latencies, passed in measured.per_block()]
        result["latencies_s"] = measured.latencies
        result["kinds"] = measured.kinds
    else:
        metrics, extra, recorder = per_layer(workload, measured)
        passes += extra
        result["metrics"] = metrics
        result["zero_call_flags"] = tracing.zero_call_flags(recorder.spans, workload.name)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.jsonl")
        recorder.write(spans_path)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    result["attempted"] = sum(p.attempted for p in passes)
    result["failures"] = [f for p in passes for f in p.failures]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
