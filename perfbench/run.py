"""chanorder benchmark: run one workload and print its metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload families --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, scaled to a nominal machine
speed (see ``worker.machine_slowdown``; the measured figures are printed
too).  Set-up is timed in ``SETUP_REPEATS`` fresh worker processes (the
last of which goes on to the timed loop) and reported as their median.
``--trace 1`` runs the same seed and queries once more with spans recorded
and prints the per-layer metrics and the tracing overhead.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 0 means the run completed (even with
failed queries, which ``correct`` and ``failed`` report); any other code
means there was nothing to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dmc-large", "families", "cli")
SETUP_REPEATS = 5
SETUP_DONE = b"setup-done\n"
# Every run must end well within three minutes.
DEADLINE_S = 170.0


def _fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def _worker(args, mode: str, deadline: float) -> tuple[float, dict]:
    """Start one worker; return its set-up wall time and its JSON result."""
    command = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE)
    setup = None
    output = b""
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            while True:
                if not selector.select(timeout=max(0.0, deadline - time.perf_counter())):
                    raise TimeoutError
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                output += chunk
                if setup is None and SETUP_DONE in output:
                    setup = time.perf_counter() - start
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except (TimeoutError, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{mode} worker exceeded the {DEADLINE_S:.0f} s deadline") from None
    finally:
        proc.stdout.close()
    if proc.returncode != 0 or setup is None:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    result = json.loads(output.decode().splitlines()[-1])
    return setup, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chanorder benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "chanorder", "__init__.py")):
        return _fail(f"no chanorder sources under {os.path.join(ROOT, 'src')}; run from a checkout")

    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.trace:
            setups = []
            _, result = _worker(args, "trace", deadline)
        else:
            setups = [_worker(args, "setup", deadline) for _ in range(SETUP_REPEATS - 1)]
            setups.append(_worker(args, "run", deadline))
            result = setups[-1][1]
    except (RuntimeError, ValueError, IndexError) as exc:
        return _fail(str(exc))

    metrics = {name: {"value": value, "unit": unit, "samples": samples}
               for name, (value, unit, samples) in result["metrics"].items()}
    # Set-up time is scaled to the nominal machine speed like the other
    # end-to-end figures, by the gauges each set-up process took after it.
    setup_s = [seconds / worker["setup_slowdown"] for seconds, worker in setups]
    if setups:
        metrics["setup_s"] = {"value": statistics.median(setup_s), "unit": "s", "samples": len(setups)}
        result["measured"]["setup_s"] = statistics.median(seconds for seconds, _ in setups)
    attempted, failures = result["attempted"], result["failures"]

    print("# env " + json.dumps(result["env"], sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
          f"blocks {result['blocks']} input_sha256 {result['input_sha256']}")
    for name in sorted(metrics):
        m = metrics[name]
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']:6s} (n={m['samples']})")
    print(f"{'error_rate':40s} {len(failures) / attempted:>16.6g} ratio  "
          f"({len(failures)} failed of {attempted} attempted)")
    if "measured" in result:
        print("# measured, before scaling to the nominal machine speed: " + json.dumps(result["measured"]))
    for outcome in result["known_defects"]:
        print(f"# KNOWN DEFECT {outcome}")
    for flag in result.get("zero_call_flags", []):
        print(f"# ZERO CALLS: span {flag} recorded no calls on {args.workload}")
    if "spans_file" in result:
        print(f"# spans written to {result['spans_file']}")
    for failure in failures:
        print(f"FAILED {failure}")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    saved = dict(result, metrics=metrics, setup_runs=[[seconds, worker["setup_slowdown"]]
                                                       for seconds, worker in setups])
    path = os.path.join(HERE, "out", f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(saved, handle, indent=1)

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
