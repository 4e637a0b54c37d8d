"""Shared random-instance generators for the test suite."""

import numpy as np

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
