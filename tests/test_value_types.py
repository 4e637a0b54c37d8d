"""Value types that hold arrays compare and hash by identity."""

import copy

import numpy as np
import pytest

from chanorder import dmc, lgc, noise, phase

VALUES = {
    "StochasticMatrix": lambda: dmc.bsc(0.1),
    "InclusionWitness": lambda: dmc.includes(dmc.bsc(0.1), dmc.bsc(0.2)).witness,
    "InclusionDecision": lambda: dmc.includes(dmc.bsc(0.2), dmc.bsc(0.1)),
    "TorusSpectrum": lambda: phase.worst_channel(2),
    "MonotoneProfile": lambda: noise.gaussian(1.0),
    "GaussianChannel": lambda: lgc.GaussianChannel(np.eye(2), np.diag([2.0, 1.0])),
    "SingularSpectrum": lambda: lgc.SingularSpectrum([2.0, 1.0]),
    "HaarRotated": lambda: lgc.HaarRotated(np.eye(2)),
    "ExplicitMatrices": lambda: lgc.ExplicitMatrices([np.eye(2), np.eye(2)]),
    "SingularEnsemble": lambda: lgc.ensemble_from_sampler(lgc.GaussianEntries(2, 2), 3, seed=0),
}


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_equality_and_hash_are_identity(make):
    value = make()
    assert type(value).__name__ in VALUES
    assert value == value
    assert value != copy.copy(value)
    assert hash(value) == hash(value)
    assert value in {value}


def _torus_grid():
    coeffs = np.zeros((3, 3), dtype=complex)
    coeffs[1, 1] = 1.0
    return coeffs


# Each value type that validates its arrays: (the caller's arrays, the
# constructor, its array fields).  A tuple field holds arrays.
BUILT_FROM_ARRAYS = {
    "StochasticMatrix": (lambda: (np.full((2, 2), 0.5),), dmc.StochasticMatrix, ("entries",)),
    "TorusSpectrum": (lambda: (_torus_grid(),), lambda c: phase.TorusSpectrum(1, c), ("coeffs",)),
    "MonotoneProfile": (lambda: (np.linspace(-1.0, 1.0, 5), np.ones(5)), noise.MonotoneProfile,
                        ("grid", "density")),
    "GaussianChannel": (lambda: (np.eye(2), np.diag([2.0, 1.0])), lgc.GaussianChannel, ("H", "Sigma")),
    "SingularSpectrum": (lambda: (np.array([2.0, 1.0]),), lgc.SingularSpectrum, ("values",)),
    "HaarRotated": (lambda: (np.eye(2),), lgc.HaarRotated, ("base",)),
    "ExplicitMatrices": (lambda: (np.eye(2), np.diag([2.0, 1.0])), lambda *m: lgc.ExplicitMatrices(m),
                         ("matrices",)),
    "SingularEnsemble": (lambda: (np.array([[2.0, 1.0], [1.5, 0.5]]),),
                         lambda s: lgc.SingularEnsemble(s, seed=0), ("samples",)),
}


@pytest.mark.parametrize("arrays, build, fields", BUILT_FROM_ARRAYS.values(), ids=BUILT_FROM_ARRAYS.keys())
def test_values_hold_read_only_copies_of_the_callers_arrays(arrays, build, fields):
    caller = arrays()
    value = build(*caller)
    held = [array for field in (getattr(value, name) for name in fields)
            for array in (field if isinstance(field, tuple) else (field,))]
    assert all(array.flags.writeable for array in caller)
    assert not any(np.shares_memory(array, mine) for array in caller for mine in held)
    assert not any(mine.flags.writeable for mine in held)
    before = [mine.tobytes() for mine in held]
    for array in caller:
        array *= 2.0
    assert [mine.tobytes() for mine in held] == before
