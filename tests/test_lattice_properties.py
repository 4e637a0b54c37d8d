"""Property tests for the noise and lgc lattices, the dmc order and phase degradation.

Each law is judged by the family's own order, not by array equality: two
noise profiles are equal when ``check_order`` finds them EQUAL, and two
singular spectra are equal when each includes the other.  A dmc channel
must include itself and every mixture of its deterministic degradations,
with a witness that replays it.  Degrading a phase channel twice must equal
degrading it once by the composed degradation, itself a valid spectrum.
"""

import numpy as np
import pytest

from chanorder import dmc, lgc, noise, phase
from chanorder.noise import Relation

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given
SETTINGS = hypothesis.settings(deadline=None, max_examples=60)

# 0 lies within the matching tolerance of both -6e-10 and 6e-10, which lie
# more than the tolerance apart: the atoms of two profiles can chain.
_SITES = (-1.0, -0.5, -6e-10, 0.0, 6e-10, 0.5, 1.0)
_GRIDS = (np.linspace(-2.0, 2.0, 9), np.linspace(-3.0, 1.0, 6))
_MASS = st.floats(0.1, 2.0, allow_nan=False)


@st.composite
def profiles(draw):
    grid = _GRIDS[draw(st.integers(0, len(_GRIDS) - 1))]
    density = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.0, allow_nan=False)),
                            min_size=grid.size, max_size=grid.size))
    sites = draw(st.lists(st.sampled_from(_SITES), unique=True, max_size=3).filter(
        lambda sites: np.all(np.diff(sorted(sites)) > noise.ATOM_LOCATION_TOL)))
    atoms = [(site, draw(_MASS)) for site in sites]
    return noise.MonotoneProfile(grid=grid, density=np.array(density), atoms=tuple(atoms))


def noise_equal(a, b):
    return noise.check_order(a, b).relation is Relation.EQUAL


def noise_below(low, high):
    return noise.check_order(low, high).relation in (Relation.SECOND_WORSE, Relation.EQUAL)


_CHAIN = (noise.MonotoneProfile(atoms=[(0.0, 4.0)], grid=_GRIDS[0]),
          noise.MonotoneProfile(atoms=[(-6e-10, 2.0), (6e-10, 3.0)], grid=_GRIDS[0]))


@SETTINGS
@given(profiles(), profiles())
@hypothesis.example(*_CHAIN)
@hypothesis.example(*reversed(_CHAIN))
def test_noise_lattice_laws(a, b):
    top, bottom = noise.lub(a, b), noise.glb(a, b)
    assert noise_equal(noise.lub(a, a), a) and noise_equal(noise.glb(a, a), a)
    assert noise_equal(top, noise.lub(b, a)) and noise_equal(bottom, noise.glb(b, a))
    assert noise_equal(noise.lub(a, bottom), a) and noise_equal(noise.glb(a, top), a)
    assert top.atoms == noise.lub(b, a).atoms and bottom.atoms == noise.glb(b, a).atoms
    for side in (a, b):
        assert noise_below(side, top) and noise_below(bottom, side)
    if np.array_equal(a.grid, b.grid) and noise_below(a, b):
        assert noise.variance(a) <= noise.variance(b) + 1e-8


spectra = st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=5).map(
    lambda values: lgc.SingularSpectrum(sorted(values, reverse=True)))


def spectra_equal(a, b):
    return lgc.spectrum_includes(a, b).included and lgc.spectrum_includes(b, a).included


@SETTINGS
@given(spectra, spectra)
def test_lgc_lattice_laws(a, b):
    top, bottom = lgc.lub(a, b), lgc.glb(a, b)
    assert spectra_equal(lgc.lub(a, a), a) and spectra_equal(lgc.glb(a, a), a)
    assert spectra_equal(top, lgc.lub(b, a)) and spectra_equal(bottom, lgc.glb(b, a))
    assert spectra_equal(lgc.lub(a, bottom), a) and spectra_equal(lgc.glb(a, top), a)
    for side in (a, b):
        # The lub includes both inputs; both include the glb.
        assert lgc.spectrum_includes(top, side).included
        assert lgc.spectrum_includes(side, bottom).included


_SYMBOLS = st.integers(1, 3)
_ENTRY = st.one_of(st.just(0.0), st.floats(0.0, 1.0, allow_nan=False))


@st.composite
def dmc_channels(draw):
    n, m = draw(_SYMBOLS), draw(_SYMBOLS)
    raw = np.array(draw(st.lists(st.lists(_ENTRY, min_size=m, max_size=m), min_size=n, max_size=n)))
    raw[raw.sum(axis=1) == 0.0] = 1.0
    return dmc.StochasticMatrix(raw / raw.sum(axis=1, keepdims=True))


@st.composite
def dmc_degradations(draw, channel):
    n2, m2 = draw(_SYMBOLS), draw(_SYMBOLS)
    pair = st.builds(dmc.DeterministicPair,
                     st.lists(st.integers(0, channel.n_inputs - 1), min_size=n2, max_size=n2),
                     st.lists(st.integers(0, m2 - 1), min_size=channel.n_outputs,
                              max_size=channel.n_outputs))
    pairs = draw(st.lists(pair, min_size=1, max_size=4))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(pairs), max_size=len(pairs))))
    return dmc.degrade(channel, pairs, weights / weights.sum(), n_outputs=m2)


def assert_included(better, worse):
    decision = dmc.includes(better, worse)
    assert decision.included
    replayed = decision.witness.replay(better, n_outputs=worse.n_outputs)
    assert np.max(np.abs(replayed.entries - worse.entries)) <= 1e-9


@SETTINGS
@given(dmc_channels(), st.data())
def test_dmc_includes_itself_and_its_degradations(channel, data):
    assert_included(channel, channel)
    assert_included(channel, data.draw(dmc_degradations(channel)))


_ANGLE = st.floats(-np.pi, np.pi, allow_nan=False)
_SCALE = st.floats(0.0, 3.0, allow_nan=False)
circular_families = st.one_of(
    st.builds(phase.WrappedGaussian, _ANGLE, _SCALE),
    st.builds(phase.WrappedCauchy, _ANGLE, _SCALE),
    st.just(phase.UniformPhase()),
    st.builds(phase.PointPhase, _ANGLE),
)


@SETTINGS
@given(st.integers(1, 8), st.data())
def test_phase_degrade_closure(order, data):
    def draw_pair():
        return data.draw(circular_families), data.draw(circular_families)

    channel = phase.product_channel(*(phase.from_wrapped(f, order) for f in draw_pair()))
    d1, d2 = (phase.degradation_coeffs(phase.joint_from_marginals(*draw_pair(), 2 * order), order)
              for _ in range(2))
    composed = phase.TorusSpectrum(order, d1.coeffs * d2.coeffs, role="degradation")
    twice = phase.degrade(phase.degrade(channel, d1), d2)
    once = phase.degrade(channel, composed)
    assert np.max(np.abs(twice.coeffs - once.coeffs)) <= 1e-14
