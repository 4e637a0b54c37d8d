import json
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from chanorder import dmc, lgc, noise, numerics, phase
from chanorder.numerics import (
    _number_array, _owned_array, _unchecked, checked_integer, inverse_sqrt_spd, singular_values,
)


class TestSingularValues:
    def test_identity(self):
        assert np.allclose(singular_values(np.eye(2)), [1.0, 1.0])

    def test_diagonal(self):
        assert np.allclose(singular_values(np.diag([0.5, 2.0])), [2.0, 0.5])

    def test_antidiagonal(self):
        # Eigenvalues of M^T M are 16 and 9 by hand.
        assert np.allclose(singular_values(np.array([[0.0, 3.0], [4.0, 0.0]])), [4.0, 3.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            singular_values(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            singular_values(np.array([[np.inf, 0.0]]))


class TestInverseSqrtSpd:
    def test_identity(self):
        assert np.allclose(inverse_sqrt_spd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(inverse_sqrt_spd(np.diag([4.0, 1.0])), np.diag([0.5, 1.0]))

    def test_whitening_identity(self):
        matrix = np.array([[2.0, 1.0], [1.0, 2.0]])
        s = inverse_sqrt_spd(matrix)
        assert np.max(np.abs(s @ matrix @ s.T - np.eye(2))) <= 1e-10

    def test_random_spd_whitening(self):
        rng = np.random.default_rng(11)
        for n in range(2, 9):
            a = rng.standard_normal((n, n))
            matrix = a @ a.T + 0.5 * np.eye(n)
            s = inverse_sqrt_spd(matrix)
            assert np.max(np.abs(s @ matrix @ s.T - np.eye(n))) <= 1e-10

    def test_non_spd_named_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            inverse_sqrt_spd(np.diag([1.0, -2.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            inverse_sqrt_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))


# Every count argument: its name and a call that passes it one value.
_COUNTS = {
    "TorusSpectrum-order": ("order", lambda v: phase.TorusSpectrum(v, np.ones((1, 1)))),
    "from_wrapped-order": ("order", lambda v: phase.from_wrapped(phase.UniformPhase(), v)),
    "from_grid-order": ("order", lambda v: phase.from_grid(np.ones((4, 4)), v)),
    "degradation_coeffs-order": ("order", lambda v: phase.degradation_coeffs(phase.worst_channel(2), v)),
    "torus-document-order": ("order", lambda v: phase.from_json_dict(
        {"type": "torus", "order": v, "coeffs": [[1.0, 0.0]]})),
    "sample_haar_orthogonal-n": ("n", lambda v: lgc.sample_haar_orthogonal(v, 0)),
    "ensemble_from_sampler-n_samples": ("n_samples", lambda v: lgc.ensemble_from_sampler(
        lgc.GaussianEntries(2, 2), v, 0)),
    "GaussianEntries-rows": ("rows", lambda v: lgc.GaussianEntries(v, 2)),
    "GaussianEntries-cols": ("cols", lambda v: lgc.GaussianEntries(2, v)),
    "best_error_probability-n_messages": ("n_messages", lambda v: dmc.best_error_probability(
        dmc.bsc(0.1), v, 1)),
    "best_error_probability-block_length": ("block_length", lambda v: dmc.best_error_probability(
        dmc.bsc(0.1), 2, v)),
    "degradation_products-n2": ("worse_shape[0]", lambda v: dmc.degradation_products(dmc.bsc(0.1), (v, 2))),
    "degradation_products-m2": ("worse_shape[1]", lambda v: dmc.degradation_products(dmc.bsc(0.1), (2, v))),
}


@pytest.mark.parametrize("value, problem", [
    (0, "must be at least 1"), (np.int64(-2), "must be at least 1"),
    (2.7, "must be an integer, got 2.7"), (2.0, "must be an integer, got 2.0"),
    (True, "must be an integer, got True"),
], ids=["zero", "negative", "float", "whole-float", "bool"])
@pytest.mark.parametrize("name, call", _COUNTS.values(), ids=_COUNTS.keys())
def test_count_rule_at_every_count_argument(name, call, value, problem):
    # GaussianEntries keeps its own prefix before the rule's message.
    prefix = "rows and cols must be positive integers: " if name in ("rows", "cols") else ""
    with pytest.raises(ValueError, match=f"^{re.escape(prefix + name + ' ' + problem)}$"):
        call(value)


_LOW, _HIGH = -1e-12, 1.0 + 1e-12
# Every clipped range: its upper end (None: none), its message, and a call
# that builds a valid value around one entry and returns that entry as held.
_CLIPPED = {
    "StochasticMatrix": (1.0, "entries must lie in [0, 1]",
                         lambda v: dmc.StochasticMatrix([[v, (1.0 - v) / 2, (1.0 - v) / 2]]).entries[0, 0]),
    "SingularSpectrum": (None, "singular values must be nonnegative",
                         lambda v: lgc.SingularSpectrum([2.0, v]).values[1]),
    "SingularEnsemble": (None, "singular values must be nonnegative",
                         lambda v: lgc.SingularEnsemble([[2.0, v]], seed=0).samples[0, 1]),
    "MonotoneProfile": (None, "density must be nonnegative",
                        lambda v: noise.MonotoneProfile(np.arange(3.0), [1.0, v, 1.0]).density[1]),
}


@pytest.mark.parametrize("value", [
    np.nextafter(_LOW, -1.0), _LOW, np.nextafter(_LOW, 0.0),
    np.nextafter(_HIGH, 1.0), _HIGH, np.nextafter(_HIGH, 2.0),
], ids=["low-ulp", "low", "low+ulp", "high-ulp", "high", "high+ulp"])
@pytest.mark.parametrize("high, message, held", _CLIPPED.values(), ids=_CLIPPED.keys())
def test_clipped_range_rule_at_every_clipped_type(high, message, held, value):
    value = float(value)
    if value < _LOW or high is not None and value > high + 1e-12:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            held(value)
    else:
        assert held(value) == min(max(value, 0.0), np.inf if high is None else high)


_FLIP, _BSC = dmc.DeterministicPair((1, 0), (0, 1)), dmc.bsc(0.1)
# Every caller of the clipped-range rule, the module it calls the rule
# through, a call that clips a -0.0 and a -1e-13 (and, with an upper end,
# 1 + 1e-13), the array the rule leaves, and where the value built keeps it
# (None: degrade's weights are renormalized).  With an upper end, np.clip
# keeps -0.0; without one, it is np.maximum and makes it +0.0.
_SIGNED_ZEROS = {
    "StochasticMatrix": (dmc, lambda: dmc.StochasticMatrix([[-0.0, 1.0], [-1e-13, 1.0 + 1e-13]]),
                         [[-0.0, 1.0], [0.0, 1.0]], "entries"),
    "degrade-weights": (dmc, lambda: dmc.degrade(_BSC, [_FLIP] * 3, [-0.0, -1e-13, 1.0 + 1e-13]),
                        [0.0, 0.0, 1.0 + 1e-13], None),
    "MonotoneProfile": (noise, lambda: noise.MonotoneProfile(np.arange(4.0), [1.0, -0.0, -1e-13, 1.0]),
                        [1.0, 0.0, 0.0, 1.0], "density"),
    "SingularSpectrum": (lgc, lambda: lgc.SingularSpectrum([2.0, -0.0, -1e-13]), [2.0, 0.0, 0.0], "values"),
    "SingularEnsemble": (lgc, lambda: lgc.SingularEnsemble([[2.0, -0.0, -1e-13]], seed=0),
                         [[2.0, 0.0, 0.0]], "samples"),
}


@pytest.mark.parametrize("module, build, want, field", _SIGNED_ZEROS.values(), ids=_SIGNED_ZEROS.keys())
def test_clipped_range_rule_keeps_the_signs_of_zeros(monkeypatch, module, build, want, field):
    clipped = []

    def recording(array, message, high=None):
        numerics._clipped(array, message, high)
        clipped.append(array.copy())

    monkeypatch.setattr(module, "_clipped", recording)
    value = build()
    want = np.array(want)
    assert np.signbit(clipped[0]).tolist() == np.signbit(want).tolist()
    assert clipped[0].tobytes() == want.tobytes()
    if field is not None:
        assert getattr(value, field).tobytes() == want.tobytes()


def test_spectrum_steps_are_read_before_clipping():
    # Each value is within the range, but the step from -1e-12 up to 5e-13
    # rises by more than 1e-12; clipped first, it would not.
    with pytest.raises(ValueError, match="^singular values must be sorted nonincreasing$"):
        lgc.SingularSpectrum([-1e-12, 5e-13])


class TestCheckedInteger:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    def test_integers_pass_as_int(self, value):
        checked = checked_integer(value, "k")
        assert checked == 3 and type(checked) is int

    @pytest.mark.parametrize("value", [2.7, 3.0, np.float64(3.0), True, np.bool_(True), "3", None])
    def test_other_values_rejected(self, value):
        with pytest.raises(ValueError, match=r"^k must be an integer, got "):
            checked_integer(value, "k")


_RNG = np.random.default_rng(29)
_PROFILE = noise.to_json_dict(noise.MonotoneProfile(
    np.linspace(-1.0, 1.0, 9), _RNG.random(9), atoms=((_RNG.random(), _RNG.random()),)))
_LGC = lgc.to_json_dict(lgc.GaussianChannel(_RNG.standard_normal((2, 3)), [[2.0, 0.5], [0.5, 1.0]]))
# Every array a document carries: its parser, a seeded valid document as a
# file holds it, the array's key, and its name in messages.
_DOCUMENT_ARRAYS = [
    (dmc.from_json_dict, dmc.to_json_dict(dmc.StochasticMatrix(_RNG.dirichlet(np.ones(3), size=4))),
     "matrix", "matrix"),
    (dmc.witness_from_json_dict,
     dmc.witness_to_json_dict(dmc.includes(dmc.bsc(0.1), dmc.bsc(0.2)).witness), "weights", "witness weights"),
    (noise.from_json_dict, _PROFILE, "density", "density"),
    (noise.from_json_dict, _PROFILE, "atoms", "atoms"),
    (phase.from_json_dict, phase.to_json_dict(phase.joint_from_marginals(
        phase.WrappedCauchy(_RNG.random(), 0.3), phase.WrappedGaussian(-_RNG.random(), 0.5), 2)),
     "coeffs", "coefficients"),
    (lgc.from_json_dict, _LGC, "H", "H"),
    (lgc.from_json_dict, _LGC, "Sigma", "Sigma"),
    (lgc.ensemble_from_json_dict, lgc.ensemble_to_json_dict(
        lgc.ensemble_from_sampler(lgc.GaussianEntries(2, 3), 5, seed=29)), "samples", "samples"),
]
_DOCUMENT_ARRAYS = [(parse, json.loads(json.dumps(document)), key, what)
                    for parse, document, key, what in _DOCUMENT_ARRAYS]
_ARRAY_IDS = [f"{document.get('type', 'witness')}-{key}" for _, document, key, _ in _DOCUMENT_ARRAYS]


class TestNumberArray:
    @pytest.mark.parametrize("parse, document, key, what", _DOCUMENT_ARRAYS, ids=_ARRAY_IDS)
    @pytest.mark.parametrize("kind", [float, int])
    def test_boolean_among_numbers_is_refused(self, parse, document, key, what, kind):
        values = np.asarray(document[key], dtype=float).astype(kind).tolist()
        row = values[-1] if isinstance(values[-1], list) else values
        row[-1] = True
        with pytest.raises(TypeError, match=f"^{what} must hold only numbers$"):
            parse({**document, key: values})

    @pytest.mark.parametrize("parse, document, key, what", _DOCUMENT_ARRAYS, ids=_ARRAY_IDS)
    def test_valid_document_arrays_read_as_numpy_reads_them(self, parse, document, key, what):
        parse(document)
        floats = document[key]
        ints = np.asarray(floats, dtype=float).astype(int).tolist()
        for value in (floats, ints, tuple(floats)):
            array, expected = _number_array(value, what), np.asarray(value)
            assert (array.dtype, array.shape) == (expected.dtype, expected.shape)
            assert array.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("value", [[[0, 1], [2]], [[0, 1], 2], [[[0.0]], [[1.0], [2.0]]]],
                             ids=["short-row", "number-row", "deep"])
    def test_ragged_array_is_named(self, value):
        message = r"^atoms must be a rectangular array: nested lists differ in shape$"
        with pytest.raises(ValueError, match=message):
            _number_array(value, "atoms")


class TestUnchecked:
    def test_fields_are_set_without_validation(self):
        pair = _unchecked(dmc.DeterministicPair, input_map=(0, 1), output_map=(1, 0))
        assert pair == dmc.DeterministicPair((0, 1), (1, 0))
        assert hash(pair) == hash(dmc.DeterministicPair((0, 1), (1, 0)))
        with pytest.raises(FrozenInstanceError):
            pair.input_map = (1, 1)
        # No __post_init__ runs: a value its constructor refuses goes through.
        assert _unchecked(dmc.DeterministicPair, input_map=(), output_map=(-1,)).output_map == (-1,)


def test_unchecked_arrays_are_read_only():
    entries = np.eye(2)
    channel = _unchecked(dmc.StochasticMatrix, entries=entries)
    assert channel.entries is entries and not entries.flags.writeable


class TestOwnedArray:
    def test_an_array_of_the_dtype_is_copied(self):
        given = np.eye(2)
        owned = _owned_array(given, "H", 2)
        assert owned.tobytes() == given.tobytes()
        assert owned.flags.writeable and not np.shares_memory(owned, given)

    @pytest.mark.parametrize("value", [np.zeros((0, 2)), np.zeros(3), [[1.0, np.inf]], [[np.nan]]],
                             ids=["empty", "1-D", "inf", "nan"])
    def test_shape_and_finiteness_are_named(self, value):
        with pytest.raises(ValueError, match=r"^H must be a nonempty finite 2-D array$"):
            _owned_array(value, "H", 2)

