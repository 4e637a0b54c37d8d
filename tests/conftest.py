"""Shared random-instance generators and certificate checks for the test
suite."""

import numpy as np
import pytest

from chanorder import dmc, lgc, noise


def random_stochastic(rng, n_inputs, n_outputs):
    raw = rng.random((n_inputs, n_outputs)) + 1e-3
    return dmc.StochasticMatrix(raw / raw.sum(axis=1, keepdims=True))


def random_degradation(rng, channel, n_inputs, n_outputs, max_pairs=3):
    """Random deterministic pairs and weights targeting the given shape."""
    n_pairs = int(rng.integers(1, max_pairs + 1))
    pairs = []
    for _ in range(n_pairs):
        input_map = tuple(int(v) for v in rng.integers(0, channel.n_inputs, size=n_inputs))
        output_map = tuple(int(v) for v in rng.integers(0, n_outputs, size=channel.n_outputs))
        pairs.append(dmc.DeterministicPair(input_map, output_map))
    weights = rng.random(n_pairs) + 0.05
    return pairs, weights / weights.sum()


def check_certificate(better, worse, decision, cap=dmc.ENUMERATION_CAP, tolerance=1e-9):
    """Check a dmc decision's certificate without the search that made it.

    A witness's weights sum to 1 within 1e-9, and it replays ``worse``
    within ``tolerance``.  A separator beats every pair of
    ``degradation_products`` (enumerated within ``cap``) by a positive
    margin, equal to ``decision.margin`` within 1e-12; that margin is
    returned."""
    if decision.included:
        witness = decision.witness
        assert abs(float(witness.weights.sum()) - 1.0) <= 1e-9
        replayed = witness.replay(better, n_outputs=worse.n_outputs)
        assert np.max(np.abs(replayed.entries - worse.entries)) <= tolerance
        return None
    candidates, _ = dmc.degradation_products(better, worse.entries.shape, cap=cap)
    h = decision.separator
    margin = float(h @ worse.entries.ravel() - np.max(candidates @ h))
    assert margin > 0.0
    assert decision.margin == pytest.approx(margin, abs=1e-12)
    return margin


def rotated_copies(base, n_samples):
    """``Q1 @ base @ Q2`` for seeded orthogonal ``Q1``, ``Q2``: one law,
    spectra equal to ``base``'s up to rounding."""
    n, m = base.shape
    return lgc.ExplicitMatrices([
        lgc.sample_haar_orthogonal(n, [1, i]) @ base @ lgc.sample_haar_orthogonal(m, [2, i])
        for i in range(n_samples)
    ])


_ATOM_SITES = (-1.0, -0.5, 0.0, 0.5, 1.0)


def random_profile(rng, flag="noise_K", grid_points=129):
    grid = np.linspace(-5.0, 5.0, grid_points)
    density = rng.random(grid_points) * (rng.random(grid_points) < 0.7)
    n_atoms = int(rng.integers(0, 4))
    sites = rng.choice(len(_ATOM_SITES), size=n_atoms, replace=False)
    atoms = tuple((_ATOM_SITES[s], float(rng.random() + 0.1)) for s in sites)
    return noise.MonotoneProfile(grid=grid, density=density, atoms=atoms, flag=flag)
