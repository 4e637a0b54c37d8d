import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest

import chanorder
from chanorder import cli, dmc, lgc, noise, phase
from chanorder.cli import load_document, run
from conftest import random_degradation, random_profile, random_stochastic, rotated_copies


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def bsc_files(tmp_path):
    a = write(tmp_path / "bsc01.json", dmc.to_json_dict(dmc.bsc(0.1)))
    b = write(tmp_path / "bsc02.json", dmc.to_json_dict(dmc.bsc(0.2)))
    return a, b


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    document = json.loads(captured.out) if captured.out.strip() else None
    return code, document, captured.err


class TestDmcCommands:
    def test_check_included(self, capsys, bsc_files):
        better, worse = bsc_files
        code, doc, _ = run_json(capsys, ["dmc", "check", "--better", better, "--worse", worse])
        assert code == 0
        assert doc["result"]["included"]
        assert doc["result"]["witness"]["weights"]
        assert doc["conventions"]

    def test_check_not_included(self, capsys, bsc_files):
        better, worse = bsc_files
        code, doc, _ = run_json(capsys, ["dmc", "check", "--better", worse, "--worse", better])
        assert code == 1
        assert not doc["result"]["included"]
        assert doc["result"]["margin"] > 0

    @pytest.mark.parametrize("n_inputs", [5, 2], ids=["5x5-output-maps", "2x5-input-maps"])
    def test_check_included_mixture_past_the_default_cap(self, capsys, tmp_path, n_inputs):
        # The 5x5 mixture's 5**5 * 5**5 pairs pass the default cap; it is
        # priced over output maps, the 2x5 one over input maps.
        rng = np.random.default_rng(5)
        channel = random_stochastic(rng, 5, 5)
        mixture = dmc.degrade(channel, *random_degradation(rng, channel, n_inputs, 5), n_outputs=5)
        better = write(tmp_path / "better.json", dmc.to_json_dict(channel))
        worse = write(tmp_path / "worse.json", dmc.to_json_dict(mixture))
        code = run(["dmc", "check", "--better", better, "--worse", worse, "--cap", "10000000"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert captured.out == json.dumps(json.loads(captured.out), indent=2) + "\n"
        assert json.loads(captured.out)["result"]["included"] is True

    def test_equiv(self, capsys, tmp_path, bsc_files):
        better, _ = bsc_files
        flipped = write(
            tmp_path / "flipped.json",
            {"type": "dmc", "matrix": [[0.1, 0.9], [0.9, 0.1]]},
        )
        code, doc, _ = run_json(capsys, ["dmc", "equiv", "--a", better, "--b", flipped])
        assert code == 0 and doc["result"]["equivalent"]

    def test_witness_round_trip_through_degrade(self, capsys, tmp_path, bsc_files):
        better, worse = bsc_files
        code, doc, _ = run_json(capsys, ["dmc", "check", "--better", better, "--worse", worse])
        witness_path = write(tmp_path / "witness.json", doc["result"]["witness"])
        out_path = tmp_path / "degraded.json"
        code = run(
            ["dmc", "degrade", "--channel", better, "--witness", witness_path,
             "--n-outputs", "2", "--out", str(out_path)]
        )
        capsys.readouterr()
        assert code == 0
        degraded = load_document(str(out_path)).payload
        assert np.max(np.abs(degraded.entries - dmc.bsc(0.2).entries)) <= 1e-9

    @pytest.mark.parametrize("input_map", [[0.7, 1.2], [True, False]], ids=["float", "bool"])
    def test_non_integer_witness_map_exits_two(self, capsys, tmp_path, bsc_files, input_map):
        better, _ = bsc_files
        witness = write(tmp_path / "witness.json", {
            "weights": [1.0], "pairs": [{"input_map": input_map, "output_map": [0, 1]}],
        })
        code = run(["dmc", "degrade", "--channel", better, "--witness", witness, "--n-outputs", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        error = json.loads(captured.err)["error"]
        assert error["type"] == "ValueError" and "integer indices" in error["message"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("weights", [[float("nan")], [float("nan"), 1.0]], ids=["nan", "nan-one"])
    def test_non_finite_witness_weight_exits_two(self, capsys, tmp_path, bsc_files, weights):
        better, _ = bsc_files
        pair = {"input_map": [0, 1], "output_map": [0, 1]}
        witness = write(tmp_path / "witness.json", {"weights": weights, "pairs": [pair] * len(weights)})
        code = run(["dmc", "degrade", "--channel", better, "--witness", witness])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == {"type": "ValueError", "message": "weights must be finite"}

    @pytest.mark.parametrize("command", ["check", "equiv"])
    @pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf"])
    def test_bad_tolerance_exits_two(self, capsys, tmp_path, command, tolerance):
        a = write(tmp_path / "a.json", {"type": "dmc", "matrix": [[0.7, 0.3], [0.3, 0.7]]})
        b = write(tmp_path / "b.json", {"type": "dmc", "matrix": [[0.6, 0.4], [0.4, 0.6]]})
        files = ["--better", a, "--worse", b] if command == "check" else ["--a", a, "--b", b]
        code = run(["dmc", command, *files, "--tolerance", tolerance])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        error = json.loads(captured.err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith("tolerance must be finite and positive")

    def test_error_prob(self, capsys, bsc_files):
        better, _ = bsc_files
        code, doc, _ = run_json(
            capsys, ["dmc", "error-prob", "--channel", better, "--messages", "2", "--block-length", "3"]
        )
        assert code == 0
        assert doc["result"]["error_probability"] == pytest.approx(0.028, abs=1e-12)

    def test_error_prob_past_the_cap_by_millions_of_digits_exits_two(self, capsys, bsc_files):
        # 2**3000000 codebooks: decided and named without building the count.
        better, _ = bsc_files
        code = run(["dmc", "error-prob", "--channel", better, "--messages", "3000000", "--block-length", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == {
            "type": "EnumerationTooLargeError",
            "message": "enumeration too large: 2**3000000 codebooks exceeds the cap of 1000000",
        }


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("label, extra, entries", [
        (2**63, [], 2 * (2**63 + 1)),
        (10**8, [], 2 * (10**8 + 1)),
        (1, ["--n-outputs", "100000000"], 2 * 10**8),
    ], ids=["2**63", "10**8", "given-10**8"])
    def test_huge_degraded_alphabet_exits_two_before_allocating(self, capsys, tmp_path, bsc_files,
                                                                label, extra, entries):
        # 1 pair * 2 inputs * (the largest output label + 1) product entries.
        better, _ = bsc_files
        pair = {"input_map": [0, 1], "output_map": [0, label]}
        witness = write(tmp_path / "witness.json", {"weights": [1.0], "pairs": [pair]})
        tracemalloc.start()
        try:
            code = run(["dmc", "degrade", "--channel", better, "--witness", witness, *extra])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == json.dumps({"error": {
            "type": "EnumerationTooLargeError",
            "message": f"enumeration too large: {entries} product entries exceeds the cap of 1000000"}}) + "\n"
        assert peak < 10 * 2**20


def _nested(depth: int) -> str:
    # Written as text: json.dump itself recurses once per level.
    return "[" * depth + "]" * depth


@pytest.mark.parametrize("argv, name, text", [
    (["dmc", "check", "--better", "@deep", "--worse", "@bsc"], "deep.json",
     '{"type": "dmc", "matrix": ' + _nested(100_000) + "}"),
    (["dmc", "degrade", "--channel", "@bsc", "--witness", "@deep"], "deep.json",
     '{"weights": [1.0], "pairs": ' + _nested(100_000) + "}"),
    (["lgc", "canon", "--channel", "@deep"], "deep.json",
     '{"type": "lgc", "H": ' + _nested(100_000) + ', "Sigma": [[1.0]]}'),
], ids=["dmc-matrix", "witness-pairs", "lgc-matrix"])
def test_document_nested_past_the_recursion_limit_exits_two(capsys, tmp_path, bsc_files, argv, name, text):
    deep = tmp_path / name
    deep.write_text(text)
    paths = {"@deep": str(deep), "@bsc": bsc_files[0]}
    code = run([paths.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err.count("\n")) == (2, "", 1)
    assert json.loads(captured.err)["error"] == {
        "type": "ValueError", "message": f"{deep}: JSON nested too deeply to read"}


def test_witness_nested_five_thousand_deep_exits_two(capsys, tmp_path, bsc_files):
    # Past the decoder's recursion limit on some Python versions, within it
    # on others, where the witness parser refuses the first pair.
    deep = tmp_path / "deep.json"
    deep.write_text('{"weights": [1.0], "pairs": ' + _nested(5_000) + "}")
    code = run(["dmc", "degrade", "--channel", bsc_files[0], "--witness", str(deep)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err.count("\n")) == (2, "", 1)
    assert json.loads(captured.err)["error"]["type"] == "ValueError"


# Integer options past the bound of what they size: (argv, the one-line error).
_OVERSIZED = [
    (["phase", "extremal", "--kind", "worst", "--order", "30000"],
     {"type": "ValueError",
      "message": "order 30000 exceeds the bound of 512: its grid would hold 60001x60001 coefficients"}),
    (["phase", "build", "--h-phase", "wgauss:0:1", "--v-phase", "uniform", "--order", "30000"],
     {"type": "ValueError",
      "message": "order 30000 exceeds the bound of 512: its grid would hold 60001x60001 coefficients"}),
    (["phase", "build", "--h-phase", "uniform", "--v-phase", "uniform", "--order", str(10**12)],
     {"type": "ValueError", "message": f"order {10**12} exceeds the bound of 512: its grid would hold "
                                       f"{2 * 10**12 + 1}x{2 * 10**12 + 1} coefficients"}),
    (["lgc", "sample-haar", "--n", "200000"],
     {"type": "ValueError",
      "message": "n 200000 exceeds the bound of 2048: the matrix would hold 200000x200000 entries"}),
    (["dmc", "error-prob", "--channel", "@wide", "--messages", "1", "--block-length", "4"],
     {"type": "EnumerationTooLargeError",
      "message": "enumeration too large: 1600000000 extension entries exceeds the cap of 1000000"}),
    # With the cap lifted, an included 8x8 mixture is priced over a table of
    # 8**8 output maps, each with an 8x8 product.
    (["dmc", "check", "--better", "@channel8", "--worse", "@mixture8", "--cap", str(10**20)],
     {"type": "EnumerationTooLargeError",
      "message": "enumeration too large: 1073741824 pricing table entries exceeds the cap of 134217728"}),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, error", _OVERSIZED, ids=["extremal", "build", "build-10**12", "sample-haar",
                                                         "error-prob", "pricing-table"])
def test_integer_option_past_its_bound_exits_two_before_allocating(capsys, tmp_path, argv, error):
    rng = np.random.default_rng(18)
    channel = random_stochastic(rng, 8, 8)
    mixture = dmc.degrade(channel, *random_degradation(rng, channel, 8, 8), n_outputs=8)
    files = {"@wide": write(tmp_path / "wide.json", {"type": "dmc", "matrix": [[0.01] * 100] * 2}),
             "@channel8": write(tmp_path / "channel8.json", dmc.to_json_dict(channel)),
             "@mixture8": write(tmp_path / "mixture8.json", dmc.to_json_dict(mixture))}
    argv = [files.get(arg, arg) for arg in argv]
    tracemalloc.start()
    try:
        code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err.count("\n")) == (2, "", 1)
    assert json.loads(captured.err)["error"] == error
    assert peak < 10 * 2**20


class TestNoiseCommands:
    @pytest.fixture
    def profiles(self, tmp_path):
        a = write(
            tmp_path / "a.json",
            noise.to_json_dict(noise.MonotoneProfile(atoms=[(0.0, 1.0)])),
        )
        b = write(
            tmp_path / "b.json",
            noise.to_json_dict(noise.MonotoneProfile(atoms=[(1.0, 2.0)])),
        )
        return a, b

    def test_check_ordered(self, capsys, tmp_path):
        low = write(tmp_path / "low.json", noise.to_json_dict(noise.gaussian(1.0)))
        high = write(tmp_path / "high.json", noise.to_json_dict(noise.gaussian(2.0)))
        code, doc, _ = run_json(capsys, ["noise", "check", "--better", low, "--worse", high])
        assert code == 0
        assert doc["result"]["relation"] == "second_worse"
        assert any("worse" in c for c in doc["conventions"])
        code, _, _ = run_json(capsys, ["noise", "check", "--better", high, "--worse", low])
        assert code == 1

    @pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
    def test_bad_tolerance_exits_two(self, capsys, profiles, tolerance):
        a, b = profiles
        code = run(["noise", "check", "--better", a, "--worse", b, "--tolerance", tolerance])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        error = json.loads(captured.err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith("tolerance must be finite and nonnegative")

    def test_lub_round_trip(self, capsys, tmp_path, profiles):
        a, b = profiles
        out = tmp_path / "join.json"
        assert run(["noise", "lub", a, b, "--out", str(out)]) == 0
        capsys.readouterr()
        reloaded = json.loads(out.read_text())
        assert reloaded["type"] == "kfunction"
        for source in (a, b):
            code, doc, _ = run_json(capsys, ["noise", "check", "--better", source, "--worse", str(out)])
            assert code == 0
            assert doc["result"]["relation"] == "second_worse"

    def test_lub_of_chained_atoms(self, capsys, tmp_path):
        a = write(tmp_path / "a.json", noise.to_json_dict(noise.MonotoneProfile(atoms=[(0.0, 1.0)])))
        b = write(tmp_path / "b.json", noise.to_json_dict(
            noise.MonotoneProfile(atoms=[(-6e-10, 2.0), (6e-10, 3.0)])))
        code, doc, _ = run_json(capsys, ["noise", "lub", a, b])
        assert code == 0
        assert doc["atoms"] == [[-6e-10, 2.0], [6e-10, 3.0]]

    def test_glb_of_distinct_atoms_is_empty(self, capsys, profiles):
        a, b = profiles
        code, doc, _ = run_json(capsys, ["noise", "glb", a, b])
        assert code == 0
        assert doc["atoms"] == []

    @pytest.mark.parametrize("command", ["lub", "glb"])
    def test_lattice_csv_lists_the_density_then_the_atoms(self, capsys, tmp_path, command):
        rng = np.random.default_rng(41)
        a, b = (write(tmp_path / f"{name}.json", noise.to_json_dict(random_profile(rng))) for name in "ab")
        code, doc, _ = run_json(capsys, ["noise", command, a, b])
        assert code == 0
        code = run(["noise", command, a, b, "--format", "csv"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        grid = np.linspace(doc["grid"]["min"], doc["grid"]["max"], doc["grid"]["points"])
        rows = ["kind,x,value", *(f"density,{float(x)!r},{d!r}" for x, d in zip(grid, doc["density"])),
                *(f"atom,{loc!r},{mass!r}" for loc, mass in doc["atoms"])]
        assert captured.out == "\n".join(rows) + "\n"

    @pytest.mark.parametrize("points", [10**12, 2.7], ids=["huge", "float"])
    def test_grid_points_must_count_the_density(self, capsys, tmp_path, points):
        profile = write(tmp_path / "k.json", {
            "type": "kfunction", "grid": {"min": -1.0, "max": 1.0, "points": points},
            "density": [0.0, 0.0], "atoms": [[0.0, 1.0]],
        })
        code = run(["noise", "variance", "--profile", profile])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert json.loads(captured.err)["error"]["type"] == "ValueError"

    def test_string_grid_bound_exits_two(self, capsys, tmp_path):
        doc = noise.to_json_dict(noise.gaussian(1.0))
        doc["grid"]["min"] = str(doc["grid"]["min"])
        profile = write(tmp_path / "k.json", doc)
        code = run(["noise", "check", "--better", profile, "--worse", profile])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        error = json.loads(captured.err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith("grid.min and grid.max must be numbers")

    def test_cf_and_variance(self, capsys, tmp_path):
        profile = write(tmp_path / "g.json", noise.to_json_dict(noise.gaussian(2.0)))
        code, doc, _ = run_json(capsys, ["noise", "cf", "--profile", profile, "--zeta", "1.0"])
        assert code == 0
        assert doc["result"]["log_cf"][0]["re"] == pytest.approx(-1.0)
        code, doc, _ = run_json(capsys, ["noise", "variance", "--profile", profile])
        assert code == 0 and doc["result"]["variance"] == pytest.approx(2.0)

    @pytest.mark.parametrize("zeta", ["nan", "inf", "-inf"])
    def test_cf_rejects_non_finite_zeta(self, capsys, tmp_path, zeta):
        profile = write(tmp_path / "g.json", noise.to_json_dict(noise.gaussian(2.0)))
        code = run(["noise", "cf", "--profile", profile, "--zeta", "1.0", f"--zeta={zeta}"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        error = json.loads(captured.err)["error"]
        assert error == {"type": "ValueError", "message": f"zeta must be finite, got {float(zeta)!r}"}

    def test_cf_large_zeta(self, capsys, tmp_path):
        # The zero profile gives 0 at any finite zeta; -zeta**2 / 2 past the
        # float range is an input error.  Warnings would turn into exit 3.
        zero = write(tmp_path / "zero.json", noise.to_json_dict(noise.gaussian(0.0)))
        unit = write(tmp_path / "unit.json", noise.to_json_dict(noise.gaussian(1.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc, err = run_json(capsys, ["noise", "cf", "--profile", zero, "--zeta", "1e155",
                                               "--zeta", "1e300"])
            assert (code, err) == (0, "")
            assert doc["result"]["log_cf"] == [{"zeta": 1e155, "re": 0.0, "im": 0.0},
                                               {"zeta": 1e300, "re": 0.0, "im": 0.0}]
            code = run(["noise", "cf", "--profile", unit, "--zeta", "1e200"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        error = json.loads(captured.err)["error"]
        assert error == {"type": "ValueError", "message": "log_cf at zeta=1e+200 exceeds the float range"}


class TestPhaseCommands:
    @pytest.mark.parametrize(
        "spec, message",
        [("wgauss:0:inf", "sigma2 must be finite, got inf"), ("wcauchy:nan:1", "mean must be finite, got nan"),
         ("point:-inf", "angle must be finite, got -inf")],
    )
    def test_build_rejects_non_finite_parameter(self, capsys, spec, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["phase", "build", "--h-phase", spec, "--v-phase", "uniform", "--order", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert json.loads(captured.err)["error"] == {"type": "ValueError", "message": message}

    @pytest.mark.parametrize("spec, message", [
        ("wgauss:0", "malformed phase family 'wgauss:0': use wgauss:MEAN:SIGMA2"),
        ("wgauss:0:x", "malformed phase family 'wgauss:0:x': could not convert"),
        ("vonmises:0:1", "unknown phase family 'vonmises:0:1'"),
        # Extra fields, which were once dropped unread.
        ("wgauss:0:1:junk", "malformed phase family 'wgauss:0:1:junk': use wgauss:MEAN:SIGMA2"),
        ("uniform:5", "malformed phase family 'uniform:5': use uniform"),
        ("point:1:2:3", "malformed phase family 'point:1:2:3': use point:ANGLE"),
    ], ids=["malformed", "non-number", "unknown", "extra-wgauss", "extra-uniform", "extra-point"])
    def test_build_rejects_a_bad_family_spec(self, capsys, spec, message):
        code = run(["phase", "build", "--h-phase", spec, "--v-phase", "uniform", "--order", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err.count("\n")) == (2, "", 1)
        error = json.loads(captured.err)["error"]
        assert error["type"] == "UsageError" and error["message"].startswith(message)

    @pytest.mark.parametrize("spec", ["uniform", "U", "point", "p:0.5", "wg:0:1", "wrapped_cauchy:0.2:0.3"])
    def test_build_reads_each_family_spelling(self, capsys, spec):
        code, doc, _ = run_json(capsys, ["phase", "build", "--h-phase", spec, "--v-phase", "uniform",
                                         "--order", "2"])
        assert code == 0 and doc["metadata"]["parameters"]["h_phase"] == spec

    @pytest.fixture
    def channel_and_degradation(self, tmp_path):
        channel = phase.product_channel(phase.from_wrapped(phase.WrappedCauchy(0.0, 0.4), 2),
                                        phase.from_wrapped(phase.UniformPhase(), 2))
        return (write(tmp_path / "channel.json", phase.to_json_dict(channel)),
                write(tmp_path / "outuni.json", phase.to_json_dict(phase.output_uniformizing_degradation(2))))

    @pytest.mark.parametrize("epsilon", ["0", "1"])
    def test_strict_epsilon_outside_the_open_unit_interval_exits_two(self, capsys, channel_and_degradation,
                                                                     epsilon):
        channel, degradation = channel_and_degradation
        code = run(["phase", "strict", "--channel", channel, "--degradation", degradation, "--epsilon", epsilon])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert json.loads(captured.err)["error"] == {
            "type": "ValueError", "message": "epsilon must lie in (0, 1)"}

    def test_degrade_with_the_roles_swapped_exits_two(self, capsys, channel_and_degradation):
        channel, degradation = channel_and_degradation
        code = run(["phase", "degrade", "--channel", degradation, "--degradation", channel])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert json.loads(captured.err)["error"] == {
            "type": "ValueError", "message": "first argument must be a channel spectrum"}

    def test_build_degrade_strict(self, capsys, tmp_path):
        channel_path = tmp_path / "channel.json"
        code = run(
            ["phase", "build", "--h-phase", "wcauchy:0:0.3", "--v-phase", "wgauss:0:0.5",
             "--order", "4", "--out", str(channel_path)]
        )
        assert code == 0
        degr_path = tmp_path / "outuni.json"
        assert run(["phase", "extremal", "--kind", "output-uniform", "--order", "4",
                    "--out", str(degr_path)]) == 0
        degraded_path = tmp_path / "degraded.json"
        assert run(["phase", "degrade", "--channel", str(channel_path),
                    "--degradation", str(degr_path), "--out", str(degraded_path)]) == 0
        capsys.readouterr()

        degraded = load_document(str(degraded_path)).payload
        original = load_document(str(channel_path)).payload
        expected = np.zeros_like(original.coeffs)
        expected[:, 4] = original.coeffs[:, 4]
        assert np.array_equal(degraded.coeffs, expected)

        # A magnitude-shrinking degradation cannot be undone: exit 1.
        code, doc, _ = run_json(
            capsys, ["phase", "strict", "--channel", str(channel_path), "--degradation", str(degr_path)]
        )
        assert code == 1
        assert doc["result"]["classification"] == "strict"

    def test_strict_undoable_and_null(self, capsys, tmp_path):
        order = 3
        channel = phase.product_channel(
            phase.from_wrapped(phase.WrappedCauchy(0.0, 0.4), order),
            phase.from_wrapped(phase.WrappedCauchy(0.0, 0.2), order),
        )
        channel_path = write(tmp_path / "ch.json", phase.to_json_dict(channel))
        det = phase.degradation_coeffs(
            phase.joint_from_marginals(phase.PointPhase(0.4), phase.PointPhase(1.0), 2 * order),
            order,
        )
        det_path = write(tmp_path / "det.json", phase.to_json_dict(det))
        code, doc, _ = run_json(
            capsys, ["phase", "strict", "--channel", channel_path, "--degradation", det_path]
        )
        assert code == 0 and doc["result"]["classification"] == "undoable"

        worst_path = write(tmp_path / "worst.json", phase.to_json_dict(phase.worst_channel(order)))
        code, doc, _ = run_json(
            capsys, ["phase", "strict", "--channel", worst_path, "--degradation", det_path]
        )
        assert code == 0 and doc["result"]["classification"] == "null_channel"

    def test_worst_extremal(self, capsys):
        code, doc, _ = run_json(capsys, ["phase", "extremal", "--kind", "worst", "--order", "2"])
        assert code == 0
        spectrum = phase.from_json_dict(doc)
        assert np.array_equal(spectrum.coeffs, phase.worst_channel(2).coeffs)

    def test_build_csv_matches_coefficient_table(self, capsys):
        argv = ["phase", "build", "--h-phase", "wcauchy:0.2:0.3", "--v-phase", "wgauss:-1:0.5",
                "--order", "3"]
        _, doc, _ = run_json(capsys, argv)
        order, coeffs = 3, phase.from_json_dict(doc).coeffs
        lines = ["m,n,re,im"]
        for i in range(2 * order + 1):
            for j in range(2 * order + 1):
                c = coeffs[i, j]
                lines.append(f"{i - order},{j - order},{float(c.real)!r},{float(c.imag)!r}")
        assert run([*argv, "--format", "csv"]) == 0
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "entry", [["1.0", "0.0"], [None, 0.0], [1.0, 0.0, 0.0]], ids=["string", "null", "three-numbers"]
    )
    def test_malformed_coefficient_exits_two(self, capsys, tmp_path, entry):
        doc = phase.to_json_dict(phase.worst_channel(2))
        doc["coeffs"][0] = entry
        channel = write(tmp_path / "bad.json", doc)
        degradation = write(tmp_path / "outuni.json",
                            phase.to_json_dict(phase.output_uniformizing_degradation(2)))
        code = run(["phase", "strict", "--channel", channel, "--degradation", degradation])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert json.loads(captured.err)["error"]["type"] in ("TypeError", "ValueError")

    def test_boolean_coefficient_exits_two(self, capsys, tmp_path):
        # numpy alone reads the origin's [true, 0.0] as [1.0, 0.0].
        doc = phase.to_json_dict(phase.worst_channel(2))
        doc["coeffs"][len(doc["coeffs"]) // 2][0] = True
        channel = write(tmp_path / "bad.json", doc)
        degradation = write(tmp_path / "outuni.json",
                            phase.to_json_dict(phase.output_uniformizing_degradation(2)))
        code = run(["phase", "strict", "--channel", channel, "--degradation", degradation])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == json.dumps({"error": {
            "type": "TypeError", "message": "coefficients must hold only numbers"}}) + "\n"

    @pytest.mark.parametrize("kind", ["worst", "output-uniform", "input-uniform"])
    def test_negative_order_exits_two(self, capsys, kind):
        code = run(["phase", "extremal", "--kind", kind, "--order", "-1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert json.loads(captured.err)["error"] == {"type": "ValueError",
                                                     "message": "order must be at least 1"}


    def test_non_integer_document_order_exits_two(self, capsys, tmp_path):
        doc = phase.to_json_dict(phase.worst_channel(1))
        doc["order"] = 1.5
        channel = write(tmp_path / "worst.json", doc)
        degradation = write(tmp_path / "outuni.json",
                            phase.to_json_dict(phase.output_uniformizing_degradation(1)))
        code = run(["phase", "strict", "--channel", channel, "--degradation", degradation])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert json.loads(captured.err)["error"] == {"type": "ValueError",
                                                     "message": "order must be an integer, got 1.5"}


class TestLgcCommands:
    @pytest.fixture
    def channels(self, tmp_path):
        a = write(
            tmp_path / "a.json",
            lgc.to_json_dict(lgc.GaussianChannel(np.diag([2.0, 0.5]), np.eye(2))),
        )
        b = write(
            tmp_path / "b.json",
            lgc.to_json_dict(lgc.GaussianChannel(np.eye(2), np.eye(2))),
        )
        return a, b

    def test_canon(self, capsys, channels):
        a, _ = channels
        code, doc, _ = run_json(capsys, ["lgc", "canon", "--channel", a])
        assert code == 0
        assert doc["result"]["spectrum"] == [2.0, 0.5]

    def test_incomparable_pair_exits_one(self, capsys, channels):
        a, b = channels
        code, doc, _ = run_json(capsys, ["lgc", "check", "--better", a, "--worse", b])
        assert code == 1
        assert doc["result"]["violating_index"] == 1
        code, doc, _ = run_json(capsys, ["lgc", "check", "--better", b, "--worse", a])
        assert code == 1
        assert doc["result"]["violating_index"] == 0

    def test_lattice(self, capsys, channels):
        a, b = channels
        code, doc, _ = run_json(capsys, ["lgc", "lub", a, b])
        assert code == 0 and doc["result"]["spectrum"] == [2.0, 1.0]
        code, doc, _ = run_json(capsys, ["lgc", "glb", a, b])
        assert code == 0 and doc["result"]["spectrum"] == [1.0, 0.5]

    def test_verify_equiv(self, capsys, tmp_path, channels):
        a, _ = channels
        rot = write(tmp_path / "rot.json", {"type": "matrix", "matrix": [[0.0, -1.0], [1.0, 0.0]]})
        code, doc, _ = run_json(
            capsys, ["lgc", "verify-equiv", "--channel", a, "--b-matrix", rot, "--c-matrix", rot]
        )
        assert code == 0 and doc["result"]["equivalent"]
        shrink = write(tmp_path / "shrink.json", {"type": "matrix", "matrix": [[0.5, 0.0], [0.0, 1.0]]})
        code, doc, _ = run_json(
            capsys, ["lgc", "verify-equiv", "--channel", a, "--b-matrix", shrink, "--c-matrix", rot]
        )
        assert code == 1
        assert doc["result"]["condition"] == "singular values of B not all 1"

    def test_verify_equiv_reports_canonical_spectra_that_differ(self, capsys, tmp_path):
        # B's singular values, 1 + 5e-10, pass the 1e-9 tolerance, but they
        # scale the gain 1e3 by 5e-7.
        channel = write(tmp_path / "lgc.json",
                        lgc.to_json_dict(lgc.GaussianChannel(np.diag([1e3, 1.0]), np.eye(2))))
        b_matrix = write(tmp_path / "B.json",
                         {"type": "matrix", "matrix": ((1.0 + 5e-10) * np.eye(2)).tolist()})
        c_matrix = write(tmp_path / "C.json", {"type": "matrix", "matrix": np.eye(2).tolist()})
        code, doc, err = run_json(
            capsys, ["lgc", "verify-equiv", "--channel", channel, "--b-matrix", b_matrix,
                     "--c-matrix", c_matrix])
        assert (code, err) == (1, "")
        result = doc["result"]
        assert (result["equivalent"], result["condition"]) == (False, "canonical spectra differ")
        assert result["max_deviation"] == pytest.approx(5e-7, rel=1e-6)

    @pytest.mark.parametrize("command, built", [
        ("canon", 1), ("check", 2), ("lub", 2), ("glb", 2), ("verify-equiv", 2),
    ])
    def test_one_whitening_per_channel(self, capsys, monkeypatch, tmp_path, channels,
                                       command, built):
        # verify-equiv builds the transformed channel besides the loaded one.
        a, b = channels
        rot = write(tmp_path / "rot.json", {"type": "matrix", "matrix": [[0.0, -1.0], [1.0, 0.0]]})
        files = {
            "canon": ["--channel", a],
            "check": ["--better", a, "--worse", b],
            "lub": [a, b],
            "glb": [a, b],
            "verify-equiv": ["--channel", a, "--b-matrix", rot, "--c-matrix", rot],
        }[command]
        calls = []
        whiten = lgc.inverse_sqrt_spd
        monkeypatch.setattr(lgc, "inverse_sqrt_spd", lambda m: calls.append(m) or whiten(m))
        code, _, _ = run_json(capsys, ["lgc", command, *files])
        assert code in (0, 1)
        assert len(calls) == built

    @pytest.mark.parametrize("command", ["check", "verify-equiv"])
    @pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
    def test_bad_tolerance_exits_two(self, capsys, tmp_path, channels, command, tolerance):
        a, b = channels
        rot = write(tmp_path / "rot.json", {"type": "matrix", "matrix": [[0.0, -1.0], [1.0, 0.0]]})
        if command == "check":
            files = ["--better", b, "--worse", a]
        else:
            files = ["--channel", a, "--b-matrix", rot, "--c-matrix", rot]
        code = run(["lgc", command, *files, "--tolerance", tolerance])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        error = json.loads(captured.err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith("tolerance must be finite and nonnegative")

    def test_sample_haar_seeded(self, capsys):
        code, doc, _ = run_json(capsys, ["lgc", "sample-haar", "--n", "3", "--seed", "5"])
        assert code == 0
        matrix = np.asarray(doc["result"]["matrix"])
        assert np.max(np.abs(matrix.T @ matrix - np.eye(3))) <= 1e-10
        code, doc2, _ = run_json(capsys, ["lgc", "sample-haar", "--n", "3", "--seed", "5"])
        assert doc2["result"]["matrix"] == doc["result"]["matrix"]

    def test_ensemble_order(self, capsys, tmp_path):
        base = lgc.ensemble_from_sampler(lgc.GaussianEntries(2, 2, scale=1.0), 400, seed=3)
        double = lgc.ensemble_from_sampler(lgc.GaussianEntries(2, 2, scale=2.0), 400, seed=3)
        a = write(tmp_path / "base.json", lgc.ensemble_to_json_dict(base))
        b = write(tmp_path / "double.json", lgc.ensemble_to_json_dict(double))
        code, doc, _ = run_json(capsys, ["lgc", "ensemble-order", "--a", b, "--b", a])
        assert code == 0
        assert doc["result"]["direction"] == "first"
        incomparable = lgc.ensemble_from_sampler(lgc.HaarRotated(np.diag([2.0, 0.5])), 400, seed=4)
        c = write(tmp_path / "inc.json", lgc.ensemble_to_json_dict(incomparable))
        flat = lgc.ensemble_from_sampler(lgc.HaarRotated(np.eye(2)), 400, seed=5)
        d = write(tmp_path / "flat.json", lgc.ensemble_to_json_dict(flat))
        code, doc, _ = run_json(capsys, ["lgc", "ensemble-order", "--a", c, "--b", d])
        assert code == 1 and not doc["result"]["ordered"]

    def test_rotated_and_fixed_ensembles_of_one_matrix_are_equal(self, capsys, tmp_path):
        # One base matrix at two seeds: both are the fixed matrix's spectrum.
        base = np.random.default_rng(3).standard_normal((3, 4))
        rotated = lgc.ensemble_from_sampler(lgc.HaarRotated(base), 500, seed=0)
        fixed = lgc.ensemble_from_sampler(lgc.HaarRotated(base), 500, seed=1)
        a = write(tmp_path / "rotated.json", lgc.ensemble_to_json_dict(rotated))
        b = write(tmp_path / "fixed.json", lgc.ensemble_to_json_dict(fixed))
        code, doc, _ = run_json(capsys, ["lgc", "ensemble-order", "--a", a, "--b", b])
        assert code == 0
        assert doc["result"]["direction"] == "equal"

    def test_rotated_copies_and_fixed_matrix_are_equal(self, capsys, tmp_path):
        # Spectra equal up to rounding, so the order must not separate them.
        base = np.random.default_rng(3).standard_normal((3, 3))
        copies = lgc.ensemble_from_sampler(rotated_copies(base, 200), 200, seed=0)
        fixed = lgc.ensemble_from_sampler(lgc.HaarRotated(base), 200, seed=0)
        a = write(tmp_path / "copies.json", lgc.ensemble_to_json_dict(copies))
        b = write(tmp_path / "fixed.json", lgc.ensemble_to_json_dict(fixed))
        code, doc, _ = run_json(capsys, ["lgc", "ensemble-order", "--a", a, "--b", b])
        assert code == 0
        assert doc["result"]["direction"] == "equal"

    @pytest.mark.parametrize("seed", [7.9, True], ids=["fraction", "bool"])
    def test_non_integer_ensemble_seed_exits_two(self, capsys, tmp_path, seed):
        ensemble = lgc.ensemble_from_sampler(lgc.GaussianEntries(2, 2), 20, seed=3)
        doc = lgc.ensemble_to_json_dict(ensemble)
        good = write(tmp_path / "good.json", doc)
        bad = write(tmp_path / "bad.json", {**doc, "seed": seed})
        code = run(["lgc", "ensemble-order", "--a", good, "--b", bad])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert json.loads(captured.err)["error"] == {
            "type": "ValueError", "message": f"seed must be an integer, got {seed!r}"}

    def test_negative_ensemble_sample_exits_two(self, capsys, tmp_path):
        # Sorted, so only the nonnegativity check catches the -5.0.
        good = write(tmp_path / "good.json", {"type": "lgc_ensemble", "samples": [[3.0, 1.0]], "seed": 0})
        bad = write(tmp_path / "bad.json", {"type": "lgc_ensemble", "samples": [[3.0, -5.0], [2.0, 1.0]]})
        code = run(["lgc", "ensemble-order", "--a", good, "--b", bad])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err.count("\n")) == (2, "", 1)
        assert json.loads(captured.err)["error"] == {
            "type": "ValueError", "message": "singular values must be nonnegative"}

    def test_ensemble_order_has_no_grid_flag(self, capsys, tmp_path):
        ensemble = lgc.ensemble_from_sampler(lgc.GaussianEntries(2, 2), 20, seed=3)
        path = write(tmp_path / "e.json", lgc.ensemble_to_json_dict(ensemble))
        code = run(["lgc", "ensemble-order", "--a", path, "--b", path, "--n-grid", "101"])
        assert (code, capsys.readouterr().out) == (2, "")


def _parse(parser, argv):
    """What parsing ``argv`` prints, and the usage error it raises, if any."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        try:
            parser.parse_args(argv)
            outcome = "parsed"
        except SystemExit as exc:
            outcome = f"exit {exc.code}"
        except cli.UsageError as exc:
            outcome = f"usage error: {exc}"
    return outcome, printed.getvalue()


_GROUPS = tuple(cli._GROUP_HELP)
_PARSER_PROBES = [
    [], ["--help"], ["-h", "dmc"], ["frobnicate"], ["dm", "check"], ["--frobnicate", "dmc", "check"],
    *([group] for group in _GROUPS),
    *([group, "--help"] for group in _GROUPS),
    *([group, "frobnicate"] for group in _GROUPS),
    *([group, other, "--help"] for group in _GROUPS for other in _GROUPS if other != group),
    *([group, command, "--help"] for group, command, *_ in cli._COMMANDS),
    *([group, command] for group, command, *_ in cli._COMMANDS),
    *([group, command, "--frobnicate"] for group, command, *_ in cli._COMMANDS),
]


@pytest.mark.parametrize("argv", _PARSER_PROBES, ids=lambda argv: " ".join(argv) or "(none)")
def test_parser_for_the_named_group_reads_like_the_full_parser(argv):
    """``run`` builds subcommand parsers only for the group its arguments
    name; help and usage errors are byte-identical to the full parser's."""
    assert _parse(cli.build_parser(argv), argv) == _parse(cli.build_parser(), argv)


# Bad documents that once reached numpy or a dict lookup before validation.
# Each must exit 2 with the one-line JSON error as all of stderr, and no
# numpy warning.
_GAUSSIAN_DOC = noise.to_json_dict(noise.gaussian(1.0))
_NOISE_ARGV = {
    "check": lambda path: ["noise", "check", "--better", path, "--worse", path],
    "lub": lambda path: ["noise", "lub", path, path],
    "cf": lambda path: ["noise", "cf", "--profile", path, "--zeta", "1.0"],
    "variance": lambda path: ["noise", "variance", "--profile", path],
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", _NOISE_ARGV)
@pytest.mark.parametrize("grid, message", [
    ({"max": float("inf")}, "grid needs at least two finite points"),
    ({"min": float("-inf")}, "grid needs at least two finite points"),
    ({"max": float("nan")}, "grid needs at least two finite points"),
    ({"min": -1e308, "max": 1e308}, "grid needs at least two finite points"),
    ({"max": 10**400}, "grid needs at least two finite points"),
    (1.5, "grid must be an object with min, max and points, got 1.5"),
    ([-1.0, 1.0], "grid must be an object with min, max and points, got [-1.0, 1.0]"),
], ids=["max-inf", "min-inf", "max-nan", "span-overflow", "huge-int", "float", "list"])
def test_bad_kfunction_grid_exits_two(capsys, tmp_path, command, grid, message):
    doc = dict(_GAUSSIAN_DOC)
    doc["grid"] = {**doc["grid"], **grid} if isinstance(grid, dict) else grid
    code = run(_NOISE_ARGV[command](write(tmp_path / "k.json", doc)))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"] == {"type": "ValueError", "message": message}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", [[], {}, 1, None], ids=["list", "object", "number", "null"])
def test_non_string_document_type_exits_two(capsys, tmp_path, kind):
    path = write(tmp_path / "doc.json", {**lgc.to_json_dict(lgc.GaussianChannel(np.eye(2), np.eye(2))),
                                        "type": kind})
    code = run(["lgc", "check", "--better", path, "--worse", path])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"] == {
        "type": "ValueError", "message": f"{path}: unknown document type {kind!r}"}


# Every command that reads two or more files, each file named @1, @2, ...
# in the order the command reads them.
_MULTI_FILE_ARGV = [
    ["dmc", "check", "--better", "@1", "--worse", "@2"],
    ["dmc", "equiv", "--a", "@1", "--b", "@2"],
    ["dmc", "degrade", "--channel", "@1", "--witness", "@2"],
    ["noise", "check", "--better", "@1", "--worse", "@2"],
    ["noise", "lub", "@1", "@2"],
    ["noise", "glb", "@1", "@2"],
    ["phase", "degrade", "--channel", "@1", "--degradation", "@2"],
    ["phase", "strict", "--channel", "@1", "--degradation", "@2"],
    ["lgc", "check", "--better", "@1", "--worse", "@2"],
    ["lgc", "lub", "@1", "@2"],
    ["lgc", "glb", "@1", "@2"],
    ["lgc", "verify-equiv", "--channel", "@1", "--b-matrix", "@2", "--c-matrix", "@3"],
    ["lgc", "ensemble-order", "--a", "@1", "--b", "@2"],
]


def test_multi_file_commands_are_all_probed():
    declared = {(group, command) for group, command, _, files, _ in cli._COMMANDS if len(files) > 1}
    assert {tuple(argv[:2]) for argv in _MULTI_FILE_ARGV} == declared


@pytest.mark.parametrize("bad", ["missing", "not-an-object"])
@pytest.mark.parametrize("argv", _MULTI_FILE_ARGV, ids=lambda argv: " ".join(argv[:2]))
def test_first_bad_file_is_the_one_reported(capsys, tmp_path, argv, bad):
    """With every file bad, the error names the file the command reads first."""
    paths = {a: tmp_path / f"file{a[1:]}.json" for a in argv if a.startswith("@")}
    if bad == "not-an-object":
        for path in paths.values():
            write(path, [])
    paths = {a: str(path) for a, path in paths.items()}
    code = run([paths.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    message = json.loads(captured.err)["error"]["message"]
    assert [path for path in paths.values() if path in message] == [paths["@1"]]


_WITNESS_PAIR = {"input_map": [0, 1], "output_map": [0, 1]}
_BAD_DOCUMENTS = [
    ("lgc-overflow", ["lgc", "canon", "--channel", "@doc"],
     {"type": "lgc", "H": [[1e300]], "Sigma": [[1e-300]]},
     "whitened channel matrix Sigma^(-1/2) H overflows the float range"),
    ("lgc-overflow-check", ["lgc", "check", "--better", "@doc", "--worse", "@doc"],
     {"type": "lgc", "H": [[1e300]], "Sigma": [[1e-300]]},
     "whitened channel matrix Sigma^(-1/2) H overflows the float range"),
    ("lgc-asymmetry-overflow", ["lgc", "canon", "--channel", "@doc"],
     {"type": "lgc", "H": [[1.0, 0.0], [0.0, 1.0]], "Sigma": [[1.0, -1e308], [1e308, 1.0]]},
     "Sigma: matrix is not symmetric: max asymmetry inf"),
    ("witness-no-pairs", ["dmc", "degrade", "--channel", "@bsc", "--witness", "@doc"],
     {"weights": [1.0]},
     "witness pairs must be a list of objects with input_map and output_map"),
    ("witness-int-map", ["dmc", "degrade", "--channel", "@bsc", "--witness", "@doc"],
     {"weights": [1.0], "pairs": [{"input_map": 5, "output_map": [0, 1]}]},
     "witness pairs[0].input_map must be a list of indices"),
    ("witness-no-output-map", ["dmc", "degrade", "--channel", "@bsc", "--witness", "@doc"],
     {"weights": [1.0, 1.0], "pairs": [_WITNESS_PAIR, {"input_map": [0, 1]}]},
     "witness pairs[1].output_map must be a list of indices"),
    ("witness-string-pair", ["dmc", "degrade", "--channel", "@bsc", "--witness", "@doc"],
     {"weights": [1.0], "pairs": ["ab"]},
     "witness pairs[0] must be an object with input_map and output_map"),
    ("witness-2d-weights", ["dmc", "degrade", "--channel", "@bsc", "--witness", "@doc"],
     {"weights": [[1.0]], "pairs": [_WITNESS_PAIR]},
     "witness weights must be a 1-D list of numbers"),
    ("atoms-flat", ["noise", "variance", "--profile", "@doc"],
     {**_GAUSSIAN_DOC, "atoms": [1.0, 2.0]}, "atoms must be a list of [location, mass] pairs"),
    ("atoms-triple", ["noise", "variance", "--profile", "@doc"],
     {**_GAUSSIAN_DOC, "atoms": [[0, 1, 2]]}, "atoms must be a list of [location, mass] pairs"),
    ("atoms-empty-pair", ["noise", "variance", "--profile", "@doc"],
     {**_GAUSSIAN_DOC, "atoms": [[]]}, "atoms must be a list of [location, mass] pairs"),
    ("kfunction-grid-points", ["noise", "variance", "--profile", "@doc"],
     {**_GAUSSIAN_DOC, "grid": {"min": -1.0, "max": 1.0}, "density": [0.0, 0.0]},
     "kfunction grid is missing the required key 'points'"),
    ("ragged-atoms", ["noise", "variance", "--profile", "@doc"],
     {**_GAUSSIAN_DOC, "atoms": [[0, 1], [2]]},
     "atoms must be a rectangular array: nested lists differ in shape"),
    ("ragged-matrix", ["dmc", "check", "--better", "@doc", "--worse", "@bsc"],
     {"type": "dmc", "matrix": [[0.5, 0.5], [1.0]]},
     "matrix must be a rectangular array: nested lists differ in shape"),
    ("lgc-singular-values-overflow", ["lgc", "canon", "--channel", "@doc"],
     {"type": "lgc", "H": [[1e308, 1e308], [1e308, 1e308]], "Sigma": [[1.0, 0.0], [0.0, 1.0]]},
     "singular values of the whitened channel matrix Sigma^(-1/2) H overflow the float range"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, document, message", [case[1:] for case in _BAD_DOCUMENTS],
                         ids=[case[0] for case in _BAD_DOCUMENTS])
def test_bad_document_fields_are_named(capsys, tmp_path, argv, document, message):
    files = {"@doc": write(tmp_path / "doc.json", document),
             "@bsc": write(tmp_path / "bsc.json", dmc.to_json_dict(dmc.bsc(0.1)))}
    code = run([files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"] == {"type": "ValueError", "message": message}


_LGC_DOC = lgc.to_json_dict(lgc.GaussianChannel(np.eye(2), np.eye(2)))
# Per file kind: a command that reads it, and a complete document.
_WITHOUT = {
    "dmc": (["dmc", "check", "--better", "@doc", "--worse", "@bsc"], dmc.to_json_dict(dmc.bsc(0.1))),
    "kfunction": (["noise", "variance", "--profile", "@doc"], _GAUSSIAN_DOC),
    "torus": (["phase", "strict", "--channel", "@doc", "--degradation", "@doc"],
              phase.to_json_dict(phase.product_channel(np.ones(3), np.ones(3)))),
    "lgc": (["lgc", "canon", "--channel", "@doc"], _LGC_DOC),
    "lgc_ensemble": (["lgc", "ensemble-order", "--a", "@doc", "--b", "@doc"],
                     {"type": "lgc_ensemble", "samples": [[1.0, 0.5]], "seed": 0}),
    "matrix": (["lgc", "verify-equiv", "--channel", "@lgc", "--b-matrix", "@doc", "--c-matrix", "@doc"],
               {"type": "matrix", "matrix": [[1.0, 0.0], [0.0, 1.0]]}),
    "witness": (["dmc", "degrade", "--channel", "@bsc", "--witness", "@doc"],
                {"weights": [0.75, 0.25], "pairs": [{"input_map": [0, 1], "output_map": [0, 1]},
                                                    {"input_map": [1, 0], "output_map": [0, 1]}]}),
}
_MISSING_KEYS = [("dmc", "matrix"), ("kfunction", "grid"), ("kfunction", "density"),
                 ("torus", "order"), ("torus", "coeffs"), ("lgc", "H"), ("lgc", "Sigma"),
                 ("lgc_ensemble", "samples"), ("matrix", "matrix")]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind, key", _MISSING_KEYS, ids=[f"{kind}-{key}" for kind, key in _MISSING_KEYS])
def test_missing_required_key_is_named(capsys, tmp_path, kind, key):
    argv, document = _WITHOUT[kind]
    document = {name: value for name, value in document.items() if name != key}
    files = {"@doc": write(tmp_path / "doc.json", document),
             "@bsc": write(tmp_path / "bsc.json", dmc.to_json_dict(dmc.bsc(0.1))),
             "@lgc": write(tmp_path / "lgc.json", _LGC_DOC)}
    code = run([files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err.count("\n")) == (2, "", 1)
    # Errors from a matrix file start with its path.
    where = f"{files['@doc']}: " if kind == "matrix" else ""
    assert json.loads(captured.err)["error"] == {
        "type": "ValueError", "message": f"{where}{kind} document is missing the required key {key!r}"}


# Per file kind: the array that gets a boolean among its numbers, and its
# name in the message.
_BOOLEAN_ARRAYS = [("dmc", "matrix", "matrix"), ("kfunction", "density", "density"),
                   ("torus", "coeffs", "coefficients"), ("lgc", "H", "H"),
                   ("lgc_ensemble", "samples", "samples"), ("witness", "weights", "witness weights"),
                   ("matrix", "matrix", "matrix")]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind, key, what", _BOOLEAN_ARRAYS, ids=[kind for kind, *_ in _BOOLEAN_ARRAYS])
def test_boolean_among_numbers_exits_two(capsys, tmp_path, kind, key, what):
    argv, document = _WITHOUT[kind]
    values = np.asarray(document[key], dtype=float).tolist()
    row = values[-1] if isinstance(values[-1], list) else values
    row[-1] = True
    files = {"@doc": write(tmp_path / "doc.json", {**document, key: values}),
             "@bsc": write(tmp_path / "bsc.json", dmc.to_json_dict(dmc.bsc(0.1))),
             "@lgc": write(tmp_path / "lgc.json", _LGC_DOC)}
    code = run([files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err.count("\n")) == (2, "", 1)
    where = f"{files['@doc']}: " if kind == "matrix" else ""
    assert json.loads(captured.err)["error"] == {"type": "TypeError", "message": f"{where}{what} must hold only numbers"}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("h, c, code, outcome", [
    ([[1.0, 0.0], [0.0, 1.0]], 1e300, 2, "transformed noise covariance C Sigma C^T overflows the float range"),
    ([[1e300, 0.0], [0.0, 1.0]], 1e10, 2, "transformed channel matrix C H B overflows the float range"),
    ([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1e-7]], 1, "transformed noise covariance not positive definite"),
], ids=["covariance-overflow", "matrix-overflow", "not-positive-definite"])
def test_verify_equiv_overflow_is_named(capsys, tmp_path, h, c, code, outcome):
    c = np.multiply(c, np.eye(2)) if np.isscalar(c) else np.asarray(c)
    channel = write(tmp_path / "lgc.json", {"type": "lgc", "H": h, "Sigma": np.eye(2).tolist()})
    b_matrix = write(tmp_path / "B.json", {"type": "matrix", "matrix": np.eye(2).tolist()})
    c_matrix = write(tmp_path / "C.json", {"type": "matrix", "matrix": c.tolist()})
    got, doc, err = run_json(
        capsys, ["lgc", "verify-equiv", "--channel", channel, "--b-matrix", b_matrix, "--c-matrix", c_matrix])
    assert got == code
    if code == 2:
        assert doc is None and err.count("\n") == 1
        assert json.loads(err)["error"] == {"type": "ValueError", "message": outcome}
    else:
        assert err == "" and doc["result"] == {"equivalent": False, "condition": outcome}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["B", "C"])
def test_verify_equiv_non_finite_matrix_is_named(capsys, tmp_path, name):
    # json reads NaN, which strict JSON has no token for.
    channel = write(tmp_path / "lgc.json", _LGC_DOC)
    good = write(tmp_path / "good.json", {"type": "matrix", "matrix": np.eye(2).tolist()})
    bad = write(tmp_path / "bad.json", {"type": "matrix", "matrix": [[1.0, float("nan")], [0.0, 1.0]]})
    files = {"B": good, "C": good, name: bad}
    code = run(["lgc", "verify-equiv", "--channel", channel, "--b-matrix", files["B"], "--c-matrix", files["C"]])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err.count("\n")) == (2, "", 1)
    assert json.loads(captured.err)["error"] == {"type": "ValueError", "message": f"{name} must be finite"}


class TestErrorsAndFormats:
    def test_unknown_subcommand(self, capsys):
        code = run(["dmc", "frobnicate"])
        err = capsys.readouterr().err
        assert code == 2
        assert json.loads(err)["error"]["type"] == "UsageError"

    def test_missing_file(self, capsys):
        code = run(["dmc", "check", "--better", "/nonexistent.json", "--worse", "/nonexistent.json"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error" in json.loads(err)

    def test_malformed_document(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"type": "dmc", "matrix": [[0.5, 0.6]]}')
        code = run(["dmc", "check", "--better", str(bad), "--worse", str(bad)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]["message"]

    @pytest.mark.parametrize("group", ["dmc", "lgc"])
    def test_non_number_document_exits_two(self, capsys, tmp_path, group):
        if group == "dmc":
            matrix = [["0.25", "0.75"], [True, False]]
            bad = write(tmp_path / "bad.json", {"type": "dmc", "matrix": matrix})
            argv = ["dmc", "check", "--better", bad, "--worse", bad]
        else:
            channel = lgc.to_json_dict(lgc.GaussianChannel(np.eye(2), np.eye(2)))
            good = write(tmp_path / "lgc.json", channel)
            bad = write(tmp_path / "bad.json", {"type": "matrix", "matrix": [["1", "0"], ["0", "1"]]})
            argv = ["lgc", "verify-equiv", "--channel", good, "--b-matrix", bad, "--c-matrix", bad]
        code = run(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        error = json.loads(captured.err)["error"]
        assert error["type"] == "TypeError"
        assert error["message"].endswith("matrix must hold only numbers")

    def test_wrong_document_type(self, capsys, tmp_path):
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps(noise.to_json_dict(noise.gaussian(1.0))))
        code = run(["dmc", "check", "--better", str(profile), "--worse", str(profile)])
        assert code == 2

    def test_cap_exceeded_exits_two(self, capsys, tmp_path):
        path = write(tmp_path / "c.json", dmc.to_json_dict(dmc.bsc(0.1)))
        code = run(["dmc", "check", "--better", path, "--worse", path, "--cap", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "enumeration too large" in json.loads(err)["error"]["message"]

    def test_codebook_separator_past_the_cap_exits_one(self, capsys, tmp_path):
        # bsc(0.2) does not include bsc(0.05): their best 2-codebooks decode
        # 1.6 against 1.9, which decides it though the 16 pairs pass the cap.
        better = write(tmp_path / "b.json", dmc.to_json_dict(dmc.bsc(0.2)))
        worse = write(tmp_path / "w.json", dmc.to_json_dict(dmc.bsc(0.05)))
        code, doc, err = run_json(capsys, ["dmc", "check", "--better", better, "--worse", worse,
                                           "--cap", "15"])
        assert (code, err) == (1, "")
        assert doc["result"]["separator"] == [1.0, 0.0, 0.0, 1.0]
        assert doc["result"]["margin"] == pytest.approx(0.3, abs=1e-12)

    def test_csv_for_table_results(self, capsys, tmp_path):
        channel = write(
            tmp_path / "ch.json", lgc.to_json_dict(lgc.GaussianChannel(np.diag([2.0, 0.5]), np.eye(2)))
        )
        code = run(["lgc", "canon", "--channel", channel, "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == "2.0,0.5"

    def test_csv_rejected_for_decisions(self, capsys, bsc_files):
        better, worse = bsc_files
        code = run(["dmc", "check", "--better", better, "--worse", worse, "--format", "csv"])
        assert code == 2

    def test_exit_code_independent_of_format(self, capsys, tmp_path, bsc_files):
        better, worse = bsc_files
        json_code = run(["dmc", "check", "--better", worse, "--worse", better])
        capsys.readouterr()
        out_code = run(
            ["dmc", "check", "--better", worse, "--worse", better, "--out", str(tmp_path / "r.json")]
        )
        capsys.readouterr()
        assert json_code == out_code == 1

    def test_metadata_block_round_trips(self, tmp_path):
        doc = dmc.to_json_dict(dmc.bsc(0.25))
        doc["metadata"] = {"name": "bsc25", "description": "quarter-flip channel"}
        path = write(tmp_path / "named.json", doc)
        loaded = load_document(path)
        assert loaded.name == "bsc25"
        assert loaded.kind == "dmc"

    def test_seed_env_ignored(self, capsys, monkeypatch):
        # --seed defaults to 0; no environment variable supplies it.
        monkeypatch.setenv("CHANORDER_SEED", "17")
        code, doc_env, _ = run_json(capsys, ["lgc", "sample-haar", "--n", "2"])
        assert code == 0 and doc_env["parameters"]["seed"] == 0
        code, doc_flag, _ = run_json(capsys, ["lgc", "sample-haar", "--n", "2", "--seed", "0"])
        assert doc_flag["result"]["matrix"] == doc_env["result"]["matrix"]


_DMC_CONVENTIONS = [
    "decisions are deterministic: Wolfe's min-norm-point corral, "
    "each step priced exactly with ties to the lowest index",
    "a not-included certificate is a 0/1 codebook separator when the worse channel's "
    "best M-codebook decoder (M = 2, 3, ...) beats every pair by more than "
    "max(tolerance, the rounding floor), "
    "otherwise the corral's residual",
    "witnesses replay as: sum of weights * (input-degraded, output-degraded channel)",
]
_NOISE_CONVENTIONS = [noise.ORDER_CONVENTION]
_PHASE_CONVENTIONS = [
    "strict = cannot be undone by any further phase degradation",
    "a null (worst) channel is excluded from the strictness question",
]
_LGC_CONVENTIONS = [lgc.PADDING_CONVENTION]
_ENSEMBLE_CONVENTIONS = [
    lgc.PADDING_CONVENTION,
    "ensemble comparisons assume the two ensembles share a common copula",
]
_RESULT_KEYS = ["type", "command", "parameters", "result", "conventions"]
_CAP = dmc.ENUMERATION_CAP

# (argv with @name for a written document, exit code, top-level keys,
#  parameters, conventions); channel documents carry the last three in a
# "metadata" block instead of at the top level.
_CONTRACT = [
    (["dmc", "check", "--better", "@bsc01", "--worse", "@bsc02"], 0, _RESULT_KEYS,
     {"tolerance": 1e-9, "cap": _CAP}, _DMC_CONVENTIONS),
    (["dmc", "equiv", "--a", "@bsc01", "--b", "@bsc02"], 1, _RESULT_KEYS,
     {"tolerance": 1e-9, "cap": _CAP}, _DMC_CONVENTIONS),
    (["dmc", "degrade", "--channel", "@bsc01", "--witness", "@witness"], 0,
     ["type", "matrix", "metadata"], {"n_outputs": 2}, _DMC_CONVENTIONS),
    (["dmc", "error-prob", "--channel", "@bsc01", "--messages", "2", "--block-length", "3"], 0,
     _RESULT_KEYS, {"messages": 2, "block_length": 3, "cap": _CAP}, _DMC_CONVENTIONS),
    (["noise", "check", "--better", "@low", "--worse", "@high"], 0, _RESULT_KEYS,
     {"tolerance": 1e-9}, _NOISE_CONVENTIONS),
    (["noise", "lub", "@low", "@high"], 0,
     ["type", "flag", "grid", "density", "atoms", "metadata"], {}, _NOISE_CONVENTIONS),
    (["noise", "glb", "@low", "@high"], 0,
     ["type", "flag", "grid", "density", "atoms", "metadata"], {}, _NOISE_CONVENTIONS),
    (["noise", "cf", "--profile", "@low", "--zeta", "1.0"], 0, _RESULT_KEYS, {},
     _NOISE_CONVENTIONS),
    (["noise", "variance", "--profile", "@low"], 0, _RESULT_KEYS, {}, _NOISE_CONVENTIONS),
    (["phase", "build", "--h-phase", "wcauchy:0:0.3", "--v-phase", "uniform", "--order", "2"], 0,
     ["type", "order", "coeffs", "role", "metadata"],
     {"h_phase": "wcauchy:0:0.3", "v_phase": "uniform", "order": 2}, _PHASE_CONVENTIONS),
    (["phase", "degrade", "--channel", "@torus", "--degradation", "@outuni"], 0,
     ["type", "order", "coeffs", "role", "metadata"], {}, _PHASE_CONVENTIONS),
    (["phase", "strict", "--channel", "@torus", "--degradation", "@outuni"], 1, _RESULT_KEYS,
     {"epsilon": 1e-9}, _PHASE_CONVENTIONS),
    (["phase", "extremal", "--kind", "input-uniform", "--order", "2"], 0,
     ["type", "order", "coeffs", "role", "metadata"], {"kind": "input-uniform", "order": 2},
     _PHASE_CONVENTIONS),
    (["lgc", "canon", "--channel", "@lgc_a"], 0, _RESULT_KEYS, {}, _LGC_CONVENTIONS),
    (["lgc", "check", "--better", "@lgc_a", "--worse", "@lgc_b"], 1, _RESULT_KEYS,
     {"tolerance": 1e-9}, _LGC_CONVENTIONS),
    (["lgc", "lub", "@lgc_a", "@lgc_b"], 0, _RESULT_KEYS, {}, _LGC_CONVENTIONS),
    (["lgc", "glb", "@lgc_a", "@lgc_b"], 0, _RESULT_KEYS, {}, _LGC_CONVENTIONS),
    (["lgc", "verify-equiv", "--channel", "@lgc_a", "--b-matrix", "@rot", "--c-matrix", "@rot"],
     0, _RESULT_KEYS, {"tolerance": 1e-9}, _LGC_CONVENTIONS),
    (["lgc", "sample-haar", "--n", "2", "--seed", "5"], 0, _RESULT_KEYS, {"n": 2, "seed": 5},
     _LGC_CONVENTIONS),
    (["lgc", "ensemble-order", "--a", "@double", "--b", "@base"], 0, _RESULT_KEYS,
     {}, _ENSEMBLE_CONVENTIONS),
]


@pytest.fixture
def contract_files(tmp_path):
    return _write_contract_files(tmp_path, order=2)


def _write_contract_files(tmp_path, order):
    witness = dmc.includes(dmc.bsc(0.1), dmc.bsc(0.2)).witness
    torus = phase.product_channel(
        phase.from_wrapped(phase.WrappedCauchy(0.0, 0.3), order),
        phase.from_wrapped(phase.WrappedGaussian(0.0, 0.5), order),
    )
    documents = {
        "bsc01": dmc.to_json_dict(dmc.bsc(0.1)),
        "bsc02": dmc.to_json_dict(dmc.bsc(0.2)),
        "witness": dmc.witness_to_json_dict(witness),
        "low": noise.to_json_dict(noise.gaussian(1.0)),
        "high": noise.to_json_dict(noise.gaussian(2.0)),
        "torus": phase.to_json_dict(torus),
        "outuni": phase.to_json_dict(phase.output_uniformizing_degradation(order)),
        "lgc_a": lgc.to_json_dict(lgc.GaussianChannel(np.diag([2.0, 0.5]), np.eye(2))),
        "lgc_b": lgc.to_json_dict(lgc.GaussianChannel(np.eye(2), np.eye(2))),
        "rot": {"type": "matrix", "matrix": [[0.0, -1.0], [1.0, 0.0]]},
        "base": lgc.ensemble_to_json_dict(
            lgc.ensemble_from_sampler(lgc.GaussianEntries(2, 2, scale=1.0), 200, seed=3)),
        "double": lgc.ensemble_to_json_dict(
            lgc.ensemble_from_sampler(lgc.GaussianEntries(2, 2, scale=2.0), 200, seed=3)),
    }
    return {name: write(tmp_path / f"{name}.json", obj) for name, obj in documents.items()}


@pytest.mark.parametrize(
    "argv, code, keys, parameters, conventions",
    _CONTRACT,
    ids=[" ".join(case[0][:2]) for case in _CONTRACT],
)
def test_subcommand_contract(capsys, contract_files, argv, code, keys, parameters, conventions):
    argv = [contract_files[a[1:]] if a.startswith("@") else a for a in argv]
    got, doc, err = run_json(capsys, argv)
    assert (got, err) == (code, "")
    assert list(doc) == keys
    command = " ".join(argv[:2])
    if doc["type"] == "result":
        assert (doc["command"], doc["parameters"], doc["conventions"]) == (
            command, parameters, conventions)
    else:
        assert doc["metadata"] == {
            "command": command, "parameters": parameters, "conventions": conventions}
        assert list(doc["metadata"]) == ["command", "parameters", "conventions"]


_FAMILIES = {"dmc": dmc, "noise": noise, "phase": phase, "lgc": lgc}


@pytest.mark.parametrize("argv", [case[0] for case in _CONTRACT],
                         ids=[" ".join(case[0][:2]) for case in _CONTRACT])
def test_printed_conventions_are_the_family_constants(capsys, contract_files, argv):
    argv = [contract_files[a[1:]] if a.startswith("@") else a for a in argv]
    _, doc, err = run_json(capsys, argv)
    assert err == ""
    printed = doc["conventions"] if doc["type"] == "result" else doc["metadata"]["conventions"]
    family = _FAMILIES[argv[0]]
    expected = family.ENSEMBLE_CONVENTIONS if argv[1] == "ensemble-order" else family.CONVENTIONS
    assert printed == list(expected)


@pytest.mark.parametrize("argv", [case[0] for case in _CONTRACT],
                         ids=[" ".join(case[0][:2]) for case in _CONTRACT])
@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
def test_output_is_json_dumps_indent_two(capsys, monkeypatch, tmp_path, argv, out):
    # Every command's document, phase grids at order 16 (1,089 coefficient
    # pairs), is written exactly as json.dumps(document, indent=2) writes it.
    files = _write_contract_files(tmp_path, order=16)
    argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
    argv = ["16" if previous == "--order" else a for previous, a in zip(["", *argv], argv)]
    documents = []
    build = cli._result_doc

    def record(*args):
        documents.append(build(*args))
        return documents[-1]

    monkeypatch.setattr(cli, "_result_doc", record)
    path = tmp_path / "document.json"
    run([*argv, "--out", str(path)] if out else argv)
    captured = capsys.readouterr()
    text = path.read_text(encoding="utf-8") if out else captured.out
    assert captured.err == "" and len(documents) == 1
    assert text == json.dumps(documents[0], indent=2) + "\n"


_EDGE_CASES = [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], []], [[1.0], []], [[], [1.0]],
    [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e300, 5e-324],
    [[float("nan"), -0.0], [float("inf"), 1]],
    [True, False, 1, 0.5], [[True, 2], [False, 3.5]], [None, 1.0], [[None], [1.0]],
    {"metadata": {"name": "Kanal \u00fcber \u00e9t\u00e9 \u2014 \u03bb\u2265\u00bd \U0001d4d2",
                  "description": "tab\tquote\"backslash\\"}},
    [1, [2, 3]], [[2, 3], 1], [[1, 2], [3]], [[1, [2]], [3]], [[[1, 2], [3, 4]], [[5, 6]]],
    [[1, 2], ["a, b", "c], [d"]], ["x, y", 1], [[1, 2], (3, 4)], (1, 2.5), ((1, 2), (3, 4)),
    [np.float64(0.1), 2.0], [[np.float64(0.1)], [2.0]], {"k": np.float64(-0.0)},
    2.5, -0.0, "plain", None, True, 7, [[0.1, 0.2, 0.30000000000000004]] * 3,
]


def _text_or_error(dumps, value):
    try:
        return dumps(value)
    except ValueError:
        return ValueError


def strict_dumps(value):
    """``json.dumps(value, indent=2)`` without NaN and infinities: ValueError."""
    return _text_or_error(lambda v: json.dumps(v, indent=2, allow_nan=False), value)


@pytest.mark.parametrize("value", _EDGE_CASES, ids=[str(i) for i in range(len(_EDGE_CASES))])
def test_emitter_edge_cases(value):
    assert _text_or_error(cli._dumps, value) == strict_dumps(value)


def _random_value(rng, depth=0):
    kind = int(rng.integers(0, 9 if depth < 4 else 5))
    if kind == 0:
        return float(rng.choice([np.nan, np.inf, -np.inf, -0.0, rng.standard_normal() * 1e3]))
    if kind == 1:
        return int(rng.integers(-10**6, 10**6))
    if kind == 2:
        return bool(rng.integers(0, 2))
    if kind == 3:
        return None
    if kind == 4:
        return "".join(rng.choice(list("ab, []{}\"\u00e9\u2014"), size=int(rng.integers(0, 6))))
    size = int(rng.integers(0, 4))
    if kind == 5:
        return {f"k{i}": _random_value(rng, depth + 1) for i in range(size)}
    if kind == 6:
        return rng.standard_normal(size).tolist()
    if kind == 7:
        return rng.standard_normal((size, int(rng.integers(0, 3)))).tolist()
    return [_random_value(rng, depth + 1) for _ in range(size)]


def test_emitter_matches_json_dumps_on_random_values():
    rng = np.random.default_rng(2105)
    for _ in range(2000):
        value = _random_value(rng)
        assert _text_or_error(cli._dumps, value) == strict_dumps(value)


@pytest.mark.parametrize(
    "failure",
    [ArithmeticError("phase-1 simplex did not converge"), np.linalg.LinAlgError("Singular matrix"),
     KeyError("matrix")],
    ids=["ArithmeticError", "LinAlgError", "KeyError"],
)
def test_internal_failure_exits_three(capsys, monkeypatch, bsc_files, failure):
    def fail(*args, **kwargs):
        raise failure

    monkeypatch.setattr(dmc, "includes", fail)
    better, worse = bsc_files
    code = run(["dmc", "check", "--better", better, "--worse", worse])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": {"type": type(failure).__name__, "message": str(failure)}}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_result_exits_three(capsys, monkeypatch, tmp_path, value):
    # Strict JSON: a NaN or an infinity never reaches stdout.
    profile = write(tmp_path / "gauss.json", noise.to_json_dict(noise.gaussian(1.0)))
    monkeypatch.setattr(noise, "variance", lambda profile: value)
    code = run(["noise", "variance", "--profile", profile])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.count("\n") == 1
    error = json.loads(captured.err)["error"]
    assert error["type"] == "FloatingPointError"
    assert error["message"].startswith("result is not finite: Out of range float values")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_table_exits_three_in_either_format(capsys, monkeypatch, tmp_path, fmt):
    channel = write(tmp_path / "lgc.json", lgc.to_json_dict(lgc.GaussianChannel(np.eye(2), np.eye(2))))
    spectrum = types.SimpleNamespace(values=np.array([np.nan, 1.0]))
    monkeypatch.setattr(lgc, "canonicalize", lambda channel: spectrum)
    code = run(["lgc", "canon", "--channel", channel, "--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert json.loads(captured.err)["error"]["type"] == "FloatingPointError"


# The filters of pyproject.toml's pytest options, for child interpreters.
_WARNINGS = "error::RuntimeWarning,error::DeprecationWarning"


def _child(*args):
    """``python *args`` in a child that imports this package and keeps the
    suite's warnings policy."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(chanorder.__file__)),
               PYTHONWARNINGS=_WARNINGS)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True)


def test_library_import_is_lazy_and_module_runs(bsc_files, tmp_path):
    def probe(code):
        done = _child("-c", code)
        assert (done.returncode, done.stderr) == (0, b""), done
        return done.stdout.decode().strip()

    # The package imports nothing: no front end, no family, no shared kernels.
    assert probe("import sys, chanorder; print(sorted(m for m in sys.modules "
                 "if m.startswith('chanorder.') or m == 'argparse'))") == "[]"
    assert probe("import sys, chanorder; print(chanorder.lgc.PADDING_CONVENTION == "
                 "sys.modules['chanorder.lgc'].PADDING_CONVENTION, 'lgc' in dir(chanorder))") == "True True"

    # A process running one command loads that family's module and no other.
    profile = write(tmp_path / "gauss.json", noise.to_json_dict(noise.gaussian(1.0)))
    commands = {
        "dmc": ["dmc", "check", "--better", bsc_files[0], "--worse", bsc_files[1]],
        "noise": ["noise", "variance", "--profile", profile],
        "phase": ["phase", "extremal", "--kind", "worst", "--order", "2"],
        "lgc": ["lgc", "sample-haar", "--n", "2", "--seed", "1"],
    }
    families = {"dmc", "noise", "phase", "lgc"}
    for group, argv in commands.items():
        argv = [*argv, "--out", str(tmp_path / f"{group}.json")]
        loaded = probe(f"import sys; from chanorder.cli import run; assert run({argv!r}) == 0; "
                       "print(' '.join(m[10:] for m in sys.modules if m.startswith('chanorder.')))")
        assert set(loaded.split()) & families == {group}

    better, worse = bsc_files
    done = _child("-m", "chanorder", "dmc", "check", "--better", better, "--worse", worse)
    assert (done.returncode, done.stderr) == (0, b"")
    assert json.loads(done.stdout)["result"]["included"]


def test_dmc_decides_with_scipy_blocked():
    """dmc runs on numpy alone: with scipy unimportable, a child decides
    included pairs priced over output maps and over input maps, and a
    not-included pair, and loads no scipy module."""
    rng = np.random.default_rng(18)
    better = random_stochastic(rng, 4, 4)
    worse = [dmc.degrade(better, *random_degradation(rng, better, n_inputs, 4), n_outputs=4)
             for n_inputs in (4, 3)]
    worse.append(random_stochastic(rng, 4, 4))
    code = ("import json, sys; sys.modules['scipy'] = None; from chanorder import dmc; "
            "better, *worse = map(dmc.StochasticMatrix, json.loads(sys.argv[1])); "
            "print([dmc.includes(better, w).included for w in worse], "
            "[m for m in sys.modules if m.startswith('scipy.')])")
    done = _child("-c", code, json.dumps([m.entries.tolist() for m in (better, *worse)]))
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == b"[True, True, False] []\n"


# What the ``chanorder`` console script runs, after an optional prelude.
_CONSOLE_ENTRY = "import sys; from chanorder.cli import main; sys.exit(main())"


def test_the_front_end_loads_numpy_only_for_a_command():
    done = _child("-c", "import sys, chanorder.cli; "
                  "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'chanorder.numerics'))))")
    assert (done.returncode, done.stdout) == (0, b"[]\n")
    # Neither --help nor a usage error imports numpy: here it cannot be imported.
    blocked = "import sys; sys.modules['numpy'] = None; " + _CONSOLE_ENTRY
    done = _child("-c", blocked, "--help")
    assert (done.returncode, done.stderr) == (0, b"") and done.stdout.startswith(b"usage: chanorder")
    done = _child("-c", blocked, "dmc", "check")
    error = {"type": "UsageError", "message": "the following arguments are required: --better, --worse"}
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == (json.dumps({"error": error}) + "\n").encode()


@pytest.mark.parametrize(("argv", "nan_variance", "code"), [
    (["dmc", "check", "--better", "@bsc01.json", "--worse", "@bsc02.json"], False, 0),
    (["dmc", "check", "--better", "@bsc02.json", "--worse", "@bsc01.json"], False, 1),
    (["dmc", "check", "--better", "@bsc01.json", "--worse", "@missing.json"], False, 2),
    (["noise", "variance", "--profile", "@gauss.json"], True, 3),
    (["noise", "lub", "@gauss.json", "@gauss.json", "--format", "csv"], False, 0),
    (["phase", "extremal", "--kind", "worst", "--order", "3", "--out", "@out.json"], False, 0),
    (["lgc", "sample-haar", "--n", "3", "--seed", "5", "--format", "csv", "--out", "@out.csv"], False, 0),
], ids=["dmc-0", "dmc-1", "dmc-2", "noise-3", "noise-csv", "phase-out", "lgc-csv-out"])
def test_console_entry_prints_what_run_prints(capsys, monkeypatch, tmp_path, argv, nan_variance, code):
    """A child running the console entry, with the collector paused and its
    heap frozen at exit, writes the bytes and exits with the code of an
    in-process ``run``.  Exit 3 comes from a variance patched to NaN."""
    write(tmp_path / "bsc01.json", dmc.to_json_dict(dmc.bsc(0.1)))
    write(tmp_path / "bsc02.json", dmc.to_json_dict(dmc.bsc(0.2)))
    write(tmp_path / "gauss.json", noise.to_json_dict(noise.gaussian(1.0)))
    nan = "from chanorder import noise; noise.variance = lambda profile: float('nan'); "
    outputs = {}
    for where in ("run", "child"):
        (tmp_path / where).mkdir()
        paths = [str(tmp_path / (where if arg.startswith("@out") else "") / arg[1:])
                 if arg.startswith("@") else arg for arg in argv]
        if where == "child":
            done = _child("-c", nan * nan_variance + _CONSOLE_ENTRY, *paths)
            outputs[where] = done.returncode, done.stdout, done.stderr
        else:
            with monkeypatch.context() as patch:
                if nan_variance:
                    patch.setattr(noise, "variance", lambda profile: float("nan"))
                returned = run(paths)
            captured = capsys.readouterr()
            outputs[where] = returned, captured.out.encode(), captured.err.encode()
        outputs[where] += ([path.read_bytes() for path in (tmp_path / where).iterdir()],)
    assert outputs["child"] == outputs["run"]
    assert outputs["run"][0] == code
    assert bool(outputs["run"][3]) == ("--out" in argv)


@pytest.mark.parametrize("state", ["enabled", "disabled", "frozen"])
def test_main_pauses_the_collector_for_the_command_only(monkeypatch, bsc_files, state):
    seen, kept = [], []
    includes = dmc.includes

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        kept.extend([] for _ in range(10 * gc.get_threshold()[0]))
        return includes(*args, **kwargs)

    monkeypatch.setattr(dmc, "includes", recording)
    (gc.disable if state == "disabled" else gc.enable)()
    if state == "frozen":
        gc.freeze()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["dmc", "check", "--better", bsc_files[0], "--worse", bsc_files[1]]) == 0
        assert (seen, gc.isenabled()) == ([False], state != "disabled")
        # A caller's frozen heap stays frozen; main freezes nothing itself.
        assert bool(gc.get_freeze_count()) == (state == "frozen")
        if state == "enabled":
            # The objects kept from the command start no young collection.
            assert gc.get_count()[0] < gc.get_threshold()[0]
    finally:
        gc.unfreeze()
        gc.enable()


def test_console_entry_freezes_the_heap_at_exit():
    # atexit runs its functions last in, first out: this one runs after the
    # freeze that main registers.
    probe = "import atexit, gc; atexit.register(lambda: print(gc.get_freeze_count() > 0)); "
    done = _child("-c", probe + _CONSOLE_ENTRY, "--help")
    assert (done.returncode, done.stdout.splitlines()[-1]) == (0, b"True")
