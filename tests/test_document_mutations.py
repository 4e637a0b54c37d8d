"""Seeded document mutations through ``cli.run``: no input crashes the program.

Every command that reads a file runs on small valid documents with one
file changed at one place: a leaf or an array set to one of ``_VALUES``.
Whatever the change, the command exits 0, 1 or 2; exit 2 writes only the
one-line JSON error, and exits 0 and 1 write strict JSON.  The full cross
product is a few thousand runs; each command file draws a fixed-size
seeded sample of it.
"""

import json
import math
import random

import numpy as np
import pytest

from chanorder import cli, dmc, lgc, noise, phase
from chanorder.cli import run

_PAIR = {"input_map": [0, 1], "output_map": [0, 1]}
_DOCUMENTS = {
    "dmc": dmc.to_json_dict(dmc.bsc(0.1)),
    "dmc2": dmc.to_json_dict(dmc.bsc(0.2)),
    "witness": {"weights": [0.75, 0.25], "pairs": [_PAIR, {"input_map": [1, 0], "output_map": [0, 1]}]},
    "kfunction": noise.to_json_dict(noise.MonotoneProfile(
        np.linspace(-1.0, 1.0, 5), [0.0, 1.0, 2.0, 1.0, 0.0], atoms=((0.0, 1.0),))),
    "kfunction2": noise.to_json_dict(noise.MonotoneProfile(
        np.linspace(-1.0, 1.0, 5), [0.0, 2.0, 2.0, 1.0, 0.5], atoms=((0.5, 0.5),))),
    "torus": phase.to_json_dict(phase.joint_from_marginals(
        phase.WrappedCauchy(0.0, 0.3), phase.WrappedGaussian(0.0, 0.5), 1)),
    "degradation": phase.to_json_dict(phase.output_uniformizing_degradation(1)),
    "lgc": lgc.to_json_dict(lgc.GaussianChannel(np.diag([2.0, 0.5]), [[1.0, 0.2], [0.2, 1.0]])),
    "lgc2": lgc.to_json_dict(lgc.GaussianChannel(np.eye(2), np.eye(2))),
    "matrix": {"type": "matrix", "matrix": [[0.0, -1.0], [1.0, 0.0]]},
    "ensemble": {"type": "lgc_ensemble", "samples": [[1.0, 0.5], [0.8, 0.2], [1.5, 0.1]], "seed": 0,
                 "copula_note": "rotated"},
    "ensemble2": {"type": "lgc_ensemble", "samples": [[2.0, 0.5], [0.9, 0.3], [1.2, 1.0]], "seed": 1},
}

# Every command that reads a file; "@name" is the document of that name.
_COMMANDS = [
    ["dmc", "check", "--better", "@dmc", "--worse", "@dmc2"],
    ["dmc", "equiv", "--a", "@dmc", "--b", "@dmc2"],
    ["dmc", "degrade", "--channel", "@dmc", "--witness", "@witness"],
    ["dmc", "error-prob", "--channel", "@dmc", "--messages", "2", "--block-length", "2"],
    ["noise", "check", "--better", "@kfunction", "--worse", "@kfunction2"],
    ["noise", "lub", "@kfunction", "@kfunction2"],
    ["noise", "glb", "@kfunction", "@kfunction2"],
    ["noise", "cf", "--profile", "@kfunction", "--zeta", "1.0"],
    ["noise", "variance", "--profile", "@kfunction"],
    ["phase", "degrade", "--channel", "@torus", "--degradation", "@degradation"],
    ["phase", "strict", "--channel", "@torus", "--degradation", "@degradation"],
    ["lgc", "canon", "--channel", "@lgc"],
    ["lgc", "check", "--better", "@lgc", "--worse", "@lgc2"],
    ["lgc", "lub", "@lgc", "@lgc2"],
    ["lgc", "glb", "@lgc", "@lgc2"],
    ["lgc", "verify-equiv", "--channel", "@lgc", "--b-matrix", "@matrix", "--c-matrix", "@matrix"],
    ["lgc", "ensemble-order", "--a", "@ensemble", "--b", "@ensemble2"],
]

_VALUES = [math.nan, math.inf, -math.inf, 1e308, 1e-320, -0.0, 2**63, True, None, "1", [], {}]
_PER_FILE = 16
_SEED = 2601


def _places(node, path=()):
    """The path of every leaf and every array below the root of ``node``."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return [path]
    places = [path] if isinstance(node, list) and path else []
    for key, child in children:
        places += _places(child, (*path, key))
    return places


def _mutated(document, path, value):
    copy = json.loads(json.dumps(document))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return copy


def _cases():
    """``(argv, document name, path, value)``: a seeded sample for each file
    a command reads, the same document read twice counted once."""
    rng = random.Random(_SEED)
    cases = []
    for argv in _COMMANDS:
        for name in dict.fromkeys(a[1:] for a in argv if a.startswith("@")):
            product = [(path, value) for path in _places(_DOCUMENTS[name]) for value in _VALUES]
            cases += [(argv, name, path, value) for path, value in rng.sample(product, _PER_FILE)]
    return cases


_CASES = _cases()


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_every_command_that_reads_a_file_is_mutated():
    declared = {(group, command) for group, command, _, files, _ in cli._COMMANDS if files}
    assert {tuple(argv[:2]) for argv in _COMMANDS} == declared
    kinds = {kind for *_, files, _ in cli._COMMANDS for _, kind in files}
    assert {_DOCUMENTS[name].get("type", "witness") for _, name, *_ in _CASES} == kinds


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", _COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_mutated_documents_exit_cleanly(capsys, tmp_path, argv):
    base = {name: str(tmp_path / f"{name}.json") for name in _DOCUMENTS}
    for name, path in base.items():
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(_DOCUMENTS[name], handle)
    mutated = tmp_path / "mutated.json"
    for case_argv, name, path, value in _CASES:
        if case_argv != argv:
            continue
        mutated.write_text(json.dumps(_mutated(_DOCUMENTS[name], path, value)))
        files = {**base, name: str(mutated)}
        code = run([files[a[1:]] if a.startswith("@") else a for a in argv])
        captured = capsys.readouterr()
        case = (name, path, value, code, captured.err)
        assert code in (0, 1, 2), case
        if code == 2:
            assert captured.out == "", case
            assert captured.err.count("\n") == 1, case
            assert set(json.loads(captured.err)["error"]) == {"type", "message"}, case
        else:
            json.loads(captured.out, parse_constant=_refuse_constant)
