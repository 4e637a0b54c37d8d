"""Fast tests of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

import checks
import tracing
import worker
import workloads
from chanorder import dmc

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _make(name, seed, tmp_path, tiny=True):
    return workloads.make(name, seed, tiny=tiny, workdir=str(tmp_path))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run_passes_every_check(name, tmp_path):
    workload = _make(name, 3, tmp_path)
    measured = worker.run_pass(workload, workload.run, workload.check, blocks=1)
    assert measured.attempted == len(workload.block(0)) > 0
    assert measured.failures == []

    recorder = tracing.Recorder()
    with tracing.installed(recorder, worker.MODULES):
        traced = worker.run_pass(workload, workload.replay, workload.check, blocks=1,
                                 recorder=recorder)
    assert traced.failures == []
    assert tracing.zero_call_flags(recorder.spans, name) == []
    # The hooks are gone again once the traced pass ends.
    assert not hasattr(dmc.includes, "__wrapped__")


def test_worker_trace_mode_reports_every_per_layer_metric():
    out = io.StringIO()
    with redirect_stdout(out):
        code = worker.main(["--workload", "dmc-large", "--seed", "2", "--seconds", "0",
                            "--mode", "trace", "--tiny"])
    assert code == 0
    lines = out.getvalue().splitlines()
    assert lines[0] == "setup-done"
    result = json.loads(lines[-1])
    assert result["failures"] == []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert result["metrics"][m["name"]][1] == m["unit"]
    block = len(workloads.make("dmc-large", 2, tiny=True).block(0))
    assert result["metrics"]["dmc.includes.calls"][0] == block * result["blocks"]
    assert result["metrics"]["lgc.sample_haar_orthogonal.calls"][0] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    for sub in ("a", "b", "c"):
        (tmp_path / sub).mkdir()
    first = _make(name, 5, tmp_path / "a")
    second = _make(name, 5, tmp_path / "b")
    other = _make(name, 6, tmp_path / "c")
    assert first.digest(2) == second.digest(2)
    assert first.digest(2) != other.digest(2)


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        ["query.dmc", 0.0, 10.0, -1, 0],
        ["dmc.includes", 1.0, 9.0, 0, 0],
        ["dmc.degradation_products", 1.5, 4.0, 1, 0],
        ["numerics.solve_feasibility", 4.0, 8.5, 1, 0],
        ["query.dmc", 10.0, 12.0, -1, 1],
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 1.0, 2.5, 4.5, 2.0])

    recorder = tracing.Recorder()
    recorder.spans = spans
    metrics = tracing.layer_metrics(recorder, "dmc-large")
    assert metrics["dmc.includes.busy_s"][0] == pytest.approx(8.0)
    assert metrics["dmc.includes.self_s"][0] == pytest.approx(1.0)
    assert metrics["layer.dmc.self_s"][0] == pytest.approx(3.5)
    assert metrics["layer.numerics.self_s"][0] == pytest.approx(4.5)
    assert metrics["layer.query.self_s"][0] == pytest.approx(4.0)
    assert metrics["query.dmc.share"][0] == pytest.approx(1.0)
    # Everything the layer map expects on dmc-large was seen except dmc.from_json_dict.
    assert tracing.zero_call_flags(spans, "dmc-large") == ["dmc.from_json_dict"]


def test_harrell_davis_quantile():
    # n = 3, p = 0.5: Beta(2, 2) weights 7/27, 13/27, 7/27 on the order statistics.
    assert worker.quantile([27.0, 0.0, 0.0], 0.5) == pytest.approx(7.0, rel=1e-3)
    assert worker.quantile([5.0] * 40, 0.9) == pytest.approx(5.0)
    values = np.random.default_rng(0).exponential(size=2000)
    assert worker.quantile(values, 0.9) == pytest.approx(np.percentile(values, 90), rel=0.03)


def _decided(included):
    rng = np.random.default_rng(0)
    better = dmc.StochasticMatrix(rng.dirichlet(np.ones(3), size=3))
    if included:
        worse = dmc.StochasticMatrix(workloads._included_worse(rng, better.entries, 2, 3)[0])
    else:
        worse = dmc.StochasticMatrix(np.eye(3)[:2])
    decision = dmc.includes(better, worse)
    assert decision.included is included
    return better, worse, decision


def test_checker_accepts_genuine_certificates():
    for included in (True, False):
        better, worse, decision = _decided(included)
        assert checks.dmc_decision_problems(better, worse, decision, None, 1e-9) == []


def test_checker_rejects_a_tampered_witness():
    better, worse, decision = _decided(True)
    witness = decision.witness
    weights = witness.weights[::-1].copy()
    if np.allclose(weights, witness.weights):
        weights = np.eye(len(weights))[0]
    tampered = dataclasses.replace(decision, witness=dataclasses.replace(witness, weights=weights))
    assert checks.dmc_decision_problems(better, worse, tampered, None, 1e-9)


def test_checker_rejects_a_tampered_separator():
    better, worse, decision = _decided(False)
    tampered = dataclasses.replace(decision, separator=-decision.separator)
    assert checks.dmc_decision_problems(better, worse, tampered, None, 1e-9)
    assert checks.dmc_decision_problems(better, worse, dataclasses.replace(decision, separator=None),
                                        None, 1e-9)


def test_checker_rejects_a_wrong_label_and_a_wrong_cli_document():
    better, worse, decision = _decided(False)
    assert checks.dmc_decision_problems(better, worse, decision, True, 1e-9)
    expect = {"code": 0, "type": "result", "command": "dmc check"}
    good = json.dumps({"type": "result", "command": "dmc check"})
    assert checks.cli_problems(0, good, expect) == []
    assert checks.cli_problems(1, good, expect)
    assert checks.cli_problems(0, json.dumps({"type": "result", "command": "dmc equiv"}), expect)
    assert checks.cli_problems(0, "not json", expect)


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "families", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_dmc_large_decides_one_repeated_row_4x4_pair_every_block():
    workload = workloads.make("dmc-large", 1)
    for index in (0, 1):
        worse = [np.asarray(q.doc["worse"]["matrix"]) for q in workload.block(index) if q.doc["included"]]
        repeated = [m for m in worse if len(np.unique(m, axis=0)) < len(m)]
        assert len(repeated) == 1 and repeated[0].shape == (4, 4)


# Every shape a workload builds dmc pairs of outside the fixed 4x4 suite, tiny sizes too.
_SUITE_SHAPES = sorted(set(workloads._FAMILY_DMC_SHAPES)
                       | {(4, 4, 3, 4), (4, 4, 4, 3), (4, 4, 3, 3), (2, 2, 3, 2), (2, 2, 2, 2)})


def test_every_member_of_every_dmc_suite_is_decided_correctly():
    for shape in _SUITE_SHAPES:
        for included in (True, False):
            for draw in workloads.suite_draws(shape, included):
                better, worse = workloads.suite_pair(shape, draw, included)
                query = workloads._dmc_pair_query(better, worse, included, workloads._ERROR_PROBABILITY)
                problems = workloads.check_dmc(query.doc, workloads.run_dmc(query.doc))
                assert problems == [], (shape, included, draw)


def test_dmc_pairs_come_from_the_suites(tmp_path):
    suite = {json.dumps(np.asarray(workloads.suite_pair(shape, draw, included)[1]).tolist())
             for shape in _SUITE_SHAPES for included in (True, False)
             for draw in workloads.suite_draws(shape, included)}
    for name in ("dmc-large", "families"):
        pairs = [q for q in workloads.make(name, 1).block(1) if q.kind == "dmc"]
        from_suites = [q for q in pairs if json.dumps(q.doc["worse"]["matrix"]) in suite]
        # dmc-large: all but the twelve decisions of its fixed 4x4 suite.
        assert len(from_suites) == len(pairs) - (12 if name == "dmc-large" else 0) > 0
    workloads.make("cli", 1, workdir=str(tmp_path))
    with open(tmp_path / "dmc_worse.json", encoding="utf-8") as handle:
        assert json.dumps(json.load(handle)["matrix"]) in suite


def test_known_defects_are_decided_again_with_one_outcome_each():
    with open(workloads.KNOWN_DEFECTS, encoding="utf-8") as handle:
        instances = json.load(handle)["instances"]
    outcomes = workloads.known_defects()
    assert len(outcomes) == len(instances)
    assert all(line.startswith("dmc.includes on ") for line in outcomes)


def test_machine_slowdown_is_the_trimmed_mean_gauge_over_nominal():
    nominal = worker.GAUGE_NOMINAL_S
    gauges = [0.0, 0.0] + [nominal] * 8 + [2 * nominal] * 8 + [100 * nominal] * 2
    # Twenty gauges: the top and bottom two are cut, leaving 8 at 1x and 8 at 2x.
    assert worker.machine_slowdown(gauges) == pytest.approx(1.5)
    assert worker.machine_slowdown([nominal]) == pytest.approx(1.0)
