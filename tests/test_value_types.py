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
