from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from chanorder import dmc
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


class TestCheckedInteger:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    def test_integers_pass_as_int(self, value):
        checked = checked_integer(value, "k")
        assert checked == 3 and type(checked) is int

    @pytest.mark.parametrize("value", [2.7, 3.0, np.float64(3.0), True, np.bool_(True), "3", None])
    def test_other_values_rejected(self, value):
        with pytest.raises(ValueError, match=r"^k must be an integer, got "):
            checked_integer(value, "k")


class TestNumberArray:
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

