"""Output checker: every benchmark query's result is checked here.

Each function returns a list of problems (empty when the output is right).
The checks recompute what they need from the inputs instead of trusting the
program's own summary numbers; a problem is counted as a failed query and
printed by the runner, never dropped.
"""

from __future__ import annotations

import json

import numpy as np

from chanorder import dmc, lgc, noise

# Slack for floating-point rounding in the replayed mixture on top of the
# decision tolerance the program was given.
REPLAY_SLACK = 1e-12


def witness_problems(better, worse, witness, tolerance: float) -> list[str]:
    """The mixture witness must replay the worse channel within the tolerance."""
    try:
        replayed = witness.replay(better, n_outputs=worse.n_outputs)
    except ValueError as exc:
        return [f"witness does not replay: {exc}"]
    error = float(np.max(np.abs(replayed.entries - worse.entries)))
    if error > tolerance + REPLAY_SLACK:
        return [f"witness replays with error {error:.3e} > tolerance {tolerance:.1e}"]
    return []


def separator_problems(better, worse, separator) -> list[str]:
    """The separator's margin, recomputed against every candidate product, must be > 0."""
    if separator is None:
        return ["not-included decision carries no separator"]
    candidates, _ = dmc.degradation_products(better, (worse.n_inputs, worse.n_outputs))
    h = np.asarray(separator, dtype=float).ravel()
    margin = float(h @ worse.entries.ravel() - np.max(candidates @ h))
    if not margin > 0.0:
        return [f"separator margin {margin:.3e} is not positive"]
    return []


def dmc_decision_problems(better, worse, decision, expect_included, tolerance: float) -> list[str]:
    """Certificate of an inclusion decision, plus the known label if there is one."""
    problems = []
    if expect_included is not None and decision.included != expect_included:
        problems.append(f"decided included={decision.included}, built as included={expect_included}")
    if decision.included:
        problems += witness_problems(better, worse, decision.witness, tolerance)
    else:
        problems += separator_problems(better, worse, decision.separator)
    return problems


def error_monotone_problems(p_better: float, p_worse: float) -> list[str]:
    """On an included pair the worse channel cannot decode better."""
    if p_worse < p_better - 1e-12:
        return [f"best error probability not monotone: worse {p_worse!r} < better {p_better!r}"]
    return []


_NOISIER = (noise.Relation.SECOND_WORSE, noise.Relation.EQUAL)


def noise_bound_problems(a, b, join, meet) -> list[str]:
    """The join must carry at least the noise of both inputs, the meet at most."""
    problems = []
    for label, low, high in (("lub>=a", a, join), ("lub>=b", b, join),
                             ("glb<=a", meet, a), ("glb<=b", meet, b)):
        relation = noise.check_order(low, high).relation
        if relation not in _NOISIER:
            problems.append(f"noise {label} fails: {relation.value}")
    return problems


def spectrum_bound_problems(a, b, join, meet) -> list[str]:
    """The lgc join must include both spectra and both must include the meet."""
    problems = []
    for label, better, worse in (("lub>=a", join, a), ("lub>=b", join, b),
                                 ("glb<=a", a, meet), ("glb<=b", b, meet)):
        if not lgc.spectrum_includes(better, worse).included:
            problems.append(f"lgc {label} fails")
    return problems


def ensemble_bound_problems(a, b, join) -> list[str]:
    """The ensemble join must be stochastically at least as large as both inputs."""
    problems = []
    for label, other in (("a", a), ("b", b)):
        decision = lgc.ensemble_order(join, other)
        if not decision.ordered or decision.direction not in ("first", "equal"):
            problems.append(
                f"ensemble lub does not dominate {label}: direction {decision.direction}, "
                f"violation {decision.max_violation:.3e} > band {decision.band:.3e}"
            )
    return problems


def same_bytes_problems(first, second, what: str) -> list[str]:
    """A reseeded draw must reproduce the first one byte for byte."""
    if first.samples.tobytes() != second.samples.tobytes():
        return [f"{what}: same seed gave different samples"]
    return []


def strictness_problems(outcome, expected: str) -> list[str]:
    if outcome.kind.value != expected:
        return [f"strictness {outcome.kind.value}, built as {expected}"]
    return []


def cli_problems(code: int, stdout: str, expect: dict) -> list[str]:
    """Exit code, then the emitted document's ``type`` and ``command`` fields."""
    if code != expect["code"]:
        return [f"exit code {code}, expected {expect['code']}"]
    try:
        document = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not a JSON document: {exc}"]
    if not isinstance(document, dict):
        return ["output is not a JSON object"]
    problems = []
    if document.get("type") != expect["type"]:
        problems.append(f"document type {document.get('type')!r}, expected {expect['type']!r}")
    holder = document if document.get("type") == "result" else document.get("metadata", {})
    if holder.get("command") != expect["command"]:
        problems.append(f"command {holder.get('command')!r}, expected {expect['command']!r}")
    return problems
