"""Linear Gaussian channels ordered by whitened singular values.

Whitening the noise and absorbing the orthogonal factors of the channel
matrix into admissible input/output processing reduces every deterministic
channel to its sorted singular values; two channels are ordered exactly when
those vectors are ordered entrywise, and the element-wise max/min gives the
lattice join/meet.  Random-coefficient channels are handled as i.i.d.
ensembles of such spectra, compared in the usual multivariate stochastic
order through empirical marginal distribution functions with a
Dvoretzky-Kiefer-Wolfowitz confidence band.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, log, sqrt

import numpy as np

from .numerics import (
    _checked_count, _clipped, _frozen, _number_array, _owned_array, _required, _unchecked,
    checked_integer, checked_tolerance, inverse_sqrt_spd, singular_values,
)

__all__ = [
    "CONVENTIONS",
    "ENSEMBLE_CONVENTIONS",
    "PADDING_CONVENTION",
    "GaussianChannel",
    "SingularSpectrum",
    "SingularEnsemble",
    "SpectrumOrderDecision",
    "EquivalenceReport",
    "EnsembleOrderDecision",
    "GaussianEntries",
    "HaarRotated",
    "ExplicitMatrices",
    "canonicalize",
    "includes",
    "spectrum_includes",
    "lub",
    "glb",
    "verify_equivalence_transform",
    "sample_haar_orthogonal",
    "ensemble_from_sampler",
    "ensemble_order",
    "ensemble_lub",
    "ensemble_glb",
    "to_json_dict",
    "from_json_dict",
    "ensemble_to_json_dict",
    "ensemble_from_json_dict",
]

PADDING_CONVENTION = (
    "spectra of different lengths are zero-padded before comparison: "
    "a missing stream is a zero-gain stream"
)

# Printed with every lgc result by the command-line front end; ensemble
# comparisons print ENSEMBLE_CONVENTIONS instead.
CONVENTIONS = (PADDING_CONVENTION,)


@dataclass(frozen=True, eq=False)
class GaussianChannel:
    """Channel matrix plus full-rank noise covariance, outputs x inputs."""

    H: np.ndarray
    Sigma: np.ndarray
    spectrum: SingularSpectrum = field(init=False, repr=False)

    def __post_init__(self):
        h = _owned_array(self.H, "H", 2)
        sigma = _owned_array(self.Sigma)
        if sigma.ndim != 2 or sigma.shape != (h.shape[0], h.shape[0]):
            raise ValueError("Sigma must be square with one row per channel output")
        try:
            whitener = inverse_sqrt_spd(sigma)
        except ValueError as exc:
            raise ValueError(f"Sigma: {exc}") from None
        _frozen(self, H=h, Sigma=sigma, spectrum=_whitened_spectrum(whitener, h))


def _whitened_spectrum(whitener: np.ndarray, h: np.ndarray) -> SingularSpectrum:
    """Singular values of ``whitener @ h``; ValueError if they or that product overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        whitened = whitener @ h
    if not np.all(np.isfinite(whitened)):
        raise ValueError("whitened channel matrix Sigma^(-1/2) H overflows the float range")
    values = singular_values(whitened)
    # The largest singular value comes first: it is the one that overflows.
    if not isfinite(values[0]):
        raise ValueError(
            "singular values of the whitened channel matrix Sigma^(-1/2) H overflow the float range"
        )
    # LAPACK returns a fresh nonempty vector, sorted nonincreasing and
    # nonnegative (no -0.0), and the first value bounds the rest, so it
    # passes every check of SingularSpectrum.
    return _unchecked(SingularSpectrum, values=values)


def _checked_singular(values: np.ndarray, unsorted: str) -> np.ndarray:
    """``values`` (along the last axis) clipped at 0; ValueError unless they are
    nonnegative and, before clipping, nonincreasing, each within 1e-12."""
    rising = values.shape[-1] > 1 and bool(np.any(np.diff(values) > 1e-12))
    _clipped(values, "singular values must be nonnegative")
    if rising:
        raise ValueError(unsorted)
    return values


@dataclass(frozen=True, eq=False)
class SingularSpectrum:
    """Sorted nonincreasing singular values of a whitened channel."""

    values: np.ndarray

    def __post_init__(self):
        values = _owned_array(self.values).ravel()
        if not np.all(np.isfinite(values)):
            raise ValueError("singular values must be finite")
        _frozen(self, values=_checked_singular(values, "singular values must be sorted nonincreasing"))

    def padded(self, length: int) -> np.ndarray:
        if length < self.values.size:
            raise ValueError("cannot pad to a shorter length")
        out = np.zeros(length)
        out[: self.values.size] = self.values
        return out


@dataclass(frozen=True)
class SpectrumOrderDecision:
    included: bool
    violating_index: int | None = None


@dataclass(frozen=True)
class EquivalenceReport:
    equivalent: bool
    condition: str | None = None
    max_deviation: float | None = None


def canonicalize(channel: GaussianChannel) -> SingularSpectrum:
    """Sorted singular values of the noise-whitened channel matrix.

    Computed once, when the channel is built, with the whitener that
    validates ``Sigma``.  Invariant under admissible processing (input
    matrices with orthonormal rows, left-invertible output matrices), so it
    identifies the channel's equivalence class.
    """
    return channel.spectrum


def spectrum_includes(
    better: SingularSpectrum,
    worse: SingularSpectrum,
    tolerance: float = 1e-9,
) -> SpectrumOrderDecision:
    """Entrywise comparison of zero-padded spectra.

    ``tolerance`` must be finite and >= 0 (0 compares exactly); anything
    else raises ValueError.
    """
    tolerance = checked_tolerance(tolerance)
    padded_better, padded_worse = _pad_pair(better, worse)
    bad = np.nonzero(padded_worse - padded_better > tolerance)[0]
    if bad.size:
        return SpectrumOrderDecision(False, violating_index=int(bad[0]))
    return SpectrumOrderDecision(True)


def includes(
    better: GaussianChannel,
    worse: GaussianChannel,
    tolerance: float = 1e-9,
) -> SpectrumOrderDecision:
    """Decide inclusion between two channels via their canonical spectra."""
    return spectrum_includes(better.spectrum, worse.spectrum, tolerance)


def _pad_pair(a: SingularSpectrum, b: SingularSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """Both spectra's values at their common length, for reading only: a
    spectrum already that long is its own read-only array."""
    length = max(a.values.size, b.values.size)
    return tuple(s.values if s.values.size == length else s.padded(length) for s in (a, b))


def _combined(a: SingularSpectrum, b: SingularSpectrum, op) -> SingularSpectrum:
    # The entrywise max or min of two finite, nonnegative, nonincreasing
    # vectors is all three, and a step rises no more than one of theirs did
    # (max(a', b') - max(a, b) <= max(a' - a, b' - b)), so the result passes
    # every check of SingularSpectrum; the inputs hold no -0.0 to clip.
    return _unchecked(SingularSpectrum, values=op(*_pad_pair(a, b)))


def lub(a: SingularSpectrum, b: SingularSpectrum) -> SingularSpectrum:
    """Element-wise maximum; max of two sorted vectors stays sorted."""
    return _combined(a, b, np.maximum)


def glb(a: SingularSpectrum, b: SingularSpectrum) -> SingularSpectrum:
    """Element-wise minimum; min of two sorted vectors stays sorted."""
    return _combined(a, b, np.minimum)


def verify_equivalence_transform(
    channel: GaussianChannel,
    b_matrix,
    c_matrix,
    tolerance: float = 1e-9,
) -> EquivalenceReport:
    """Check that admissible processing (B at the input, C at the output)
    leaves the channel's equivalence class unchanged.

    Hypotheses: every singular value of B equals 1 (so B has orthonormal
    rows and operator norm 1) and C is left-invertible.  Violated hypotheses
    are reported, not raised; only dimension mismatches, a non-finite B or
    C, a tolerance that is not finite and >= 0, and a transformed channel
    whose matrices overflow the float range raise.
    """
    tolerance = checked_tolerance(tolerance)
    b = np.asarray(b_matrix, dtype=float)
    c = np.asarray(c_matrix, dtype=float)
    if b.ndim != 2 or c.ndim != 2:
        raise ValueError("B and C must be 2-D matrices")
    outputs, inputs = channel.H.shape
    if b.shape[0] != inputs:
        raise ValueError("B must accept the channel's input dimension")
    if c.shape[1] != outputs:
        raise ValueError("C must accept the channel's output dimension")
    for name, matrix in (("B", b), ("C", c)):
        if not np.all(np.isfinite(matrix)):
            raise ValueError(f"{name} must be finite")

    if b.shape[0] > b.shape[1]:
        return EquivalenceReport(False, condition="B is not right-invertible")
    b_singulars = singular_values(b)
    if float(np.max(np.abs(b_singulars - 1.0))) > tolerance:
        return EquivalenceReport(False, condition="singular values of B not all 1")
    c_singulars = singular_values(c)
    if c.shape[0] < c.shape[1] or c_singulars[-1] <= 1e-12 * max(1.0, c_singulars[0]):
        return EquivalenceReport(False, condition="C is not left-invertible")
    with np.errstate(over="ignore", invalid="ignore"):
        h, sigma = c @ channel.H @ b, c @ channel.Sigma @ c.T
    for name, product in (("channel matrix C H B", h), ("noise covariance C Sigma C^T", sigma)):
        if not np.all(np.isfinite(product)):
            raise ValueError(f"transformed {name} overflows the float range")
    try:
        whitener = inverse_sqrt_spd(sigma)
    except ValueError:
        return EquivalenceReport(False, condition="transformed noise covariance not positive definite")

    original, moved = _pad_pair(channel.spectrum, _whitened_spectrum(whitener, h))
    deviation = float(np.max(np.abs(moved - original)))
    if deviation > tolerance:
        return EquivalenceReport(False, condition="canonical spectra differ", max_deviation=deviation)
    return EquivalenceReport(True, max_deviation=deviation)


# The largest sample_haar_orthogonal size: a 2048 x 2048 draw is 32 MiB.
_MAX_HAAR = 2048


def sample_haar_orthogonal(n: int, seed) -> np.ndarray:
    """Orthogonal matrix drawn from the rotation-invariant distribution.

    The QR factor of an i.i.d. Gaussian ``n x n`` matrix drawn from
    ``default_rng(seed)``, with its columns reflected so the R diagonal is
    positive -- without that correction the factor is not invariant
    (Mezzadri 2007).  ``n`` is at most 2048, checked before the draw.
    """
    n = _checked_count(n, "n")
    if n > _MAX_HAAR:
        raise ValueError(f"n {n} exceeds the bound of {_MAX_HAAR}: the matrix would hold {n}x{n} entries")
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    signs = np.sign(np.diagonal(r))
    signs[signs == 0.0] = 1.0
    return q * signs


@dataclass(frozen=True)
class GaussianEntries:
    """Sampler: i.i.d. Gaussian entries times a scale."""

    rows: int
    cols: int
    scale: float = 1.0

    def __post_init__(self):
        for name in ("rows", "cols"):
            try:
                value = _checked_count(getattr(self, name), name)
            except ValueError as err:
                raise ValueError(f"rows and cols must be positive integers: {err}") from None
            _frozen(self, **{name: value})
        if not np.isfinite(self.scale):
            raise ValueError("scale must be finite")


@dataclass(frozen=True, eq=False)
class HaarRotated:
    """Sampler: fresh orthogonal factors on both sides of a fixed matrix."""

    base: np.ndarray

    def __post_init__(self):
        _frozen(self, base=_owned_array(self.base, "base", 2))


@dataclass(frozen=True, eq=False)
class ExplicitMatrices:
    """Sampler: a user-supplied list of channel matrices, used in order."""

    matrices: tuple

    def __post_init__(self):
        mats = tuple(_owned_array(m, f"matrices[{i}]", 2) for i, m in enumerate(self.matrices))
        if not mats:
            raise ValueError("need a nonempty list of nonempty finite 2-D matrices")
        _frozen(self, matrices=mats)


@dataclass(frozen=True, eq=False)
class SingularEnsemble:
    """I.i.d. samples of sorted singular-value vectors."""

    samples: np.ndarray
    seed: int
    copula_note: str = ""

    def __post_init__(self):
        samples = _checked_singular(_owned_array(self.samples, "samples", 2),
                                    "each sample must be sorted nonincreasing")
        _frozen(self, samples=samples, seed=checked_integer(self.seed, "seed"))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def spectrum_length(self) -> int:
        return self.samples.shape[1]


def _spectra(sampler, n_samples: int, seed: int) -> np.ndarray:
    """The ``(n_samples, k)`` sorted singular values of the sampled matrices."""
    if isinstance(sampler, GaussianEntries):
        shape = (n_samples, sampler.rows, sampler.cols)
        draws = sampler.scale * np.random.default_rng(seed).standard_normal(shape)
        return np.linalg.svd(draws, compute_uv=False)
    if isinstance(sampler, HaarRotated):
        # Orthogonal factors leave the singular values unchanged, so every
        # sample of a rotated matrix is the matrix's own spectrum.
        spectrum = singular_values(sampler.base)
        return np.broadcast_to(spectrum, (n_samples, spectrum.size))
    if isinstance(sampler, ExplicitMatrices):
        if n_samples > len(sampler.matrices):
            raise ValueError("not enough user-supplied matrices for the requested samples")
        return np.linalg.svd(np.stack(sampler.matrices[:n_samples]), compute_uv=False)
    raise ValueError(f"unknown sampler: {sampler!r}")


def ensemble_from_sampler(sampler, n_samples: int, seed: int) -> SingularEnsemble:
    """Canonical spectra of sampled channel matrices (identity noise).

    ``GaussianEntries`` draws all ``n_samples`` matrices from one
    ``default_rng(seed)`` stream, filled in sample order, so sample ``i``
    depends only on ``(seed, i)`` and a longer ensemble extends a shorter
    one; a negative ``seed`` raises ValueError, as ``default_rng`` does.
    ``HaarRotated`` draws nothing: singular values do not change under
    orthogonal factors, so every sample is the spectrum of the base matrix,
    and the seed is recorded but never read.
    ``ExplicitMatrices`` uses its first ``n_samples`` matrices in order.
    """
    n_samples = _checked_count(n_samples, "n_samples")
    seed = checked_integer(seed, "seed")
    note = f"{type(sampler).__name__} sampler, seed={seed}"
    return SingularEnsemble(_spectra(sampler, n_samples, seed), seed=seed, copula_note=note)


@dataclass(frozen=True)
class EnsembleOrderDecision:
    """Empirical multivariate stochastic-order decision.

    ``direction`` names the stochastically larger ensemble ("first",
    "second", or "equal"); ``max_violation`` is the best direction's largest
    band-clipped CDF violation (0 when dominance holds everywhere) and
    ``max_margin`` the largest CDF separation in the winning direction.
    The common-copula assumption is the caller's responsibility and is
    recorded in ``note``.
    """

    ordered: bool
    direction: str | None
    max_margin: float
    max_violation: float
    band: float
    note: str


ENSEMBLE_CONVENTIONS = (
    PADDING_CONVENTION,
    "ensemble comparisons assume the two ensembles share a common copula",
)


def ensemble_order(
    a: SingularEnsemble,
    b: SingularEnsemble,
    delta: float = 0.05,
) -> EnsembleOrderDecision:
    """Compare ensembles coordinate-wise on empirical marginal CDFs.

    Dominance must hold at every sample point, exactly, of every coordinate
    within a DKW band: the sum of the two one-sample band widths, which for
    equal sample counts N equals ``2 sqrt(ln(2/delta) / (2N))``.  Each
    one-sample band fails with probability at most ``delta`` per coordinate,
    so over both ensembles and all ``k`` coordinates the family-wise failure
    probability is at most ``2 * k * delta`` (union bound), not ``delta``.
    ``delta`` must lie strictly between 0 and 1.  Per coordinate, pooled
    samples whose sorted neighbours differ by at most ``16 * eps`` times the
    largest ``|sample|`` of the two ensembles are one value: spectra of one
    matrix computed along different paths differ by rounding.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie strictly between 0 and 1, got {delta!r}")
    if a.spectrum_length != b.spectrum_length:
        raise ValueError("ensembles must share one spectrum length")
    band = sqrt(log(2.0 / delta) / (2.0 * a.n_samples)) + sqrt(
        log(2.0 / delta) / (2.0 * b.n_samples)
    )
    pooled = np.concatenate([a.samples, b.samples])
    order = np.argsort(pooled, axis=0)
    values = np.take_along_axis(pooled, order, axis=0)
    # Sorted pooled values this close are one value computed twice; the
    # samples are nonnegative, so the last sorted row holds the largest |sample|.
    rounding = 16 * np.finfo(float).eps * float(values[-1].max())
    # Both empirical CDFs are step functions that only jump at sample
    # points, so their largest separation is attained at a pooled sample:
    # the last of each run of values merged within rounding.
    ends = np.diff(values, axis=0, append=np.inf) > rounding
    from_a = np.cumsum(order < a.n_samples, axis=0)
    from_b = np.arange(1, len(pooled) + 1)[:, None] - from_a
    gaps = (from_a / a.n_samples - from_b / b.n_samples)[ends]
    # How far "first dominates" and "second dominates" fail.  The last run
    # end has both CDFs at 1, so each is >= 0; 0.0 - min, not -min, keeps
    # that zero 0.0 rather than -0.0.
    first_violation = float(gaps.max())
    second_violation = 0.0 - float(gaps.min())
    largest = max(first_violation, second_violation)
    note = "common copula assumed by the caller"
    first_ok = first_violation <= band
    second_ok = second_violation <= band
    if first_ok and second_ok:
        return EnsembleOrderDecision(True, "equal", largest, largest, band, note)
    if first_ok:
        return EnsembleOrderDecision(True, "first", second_violation, first_violation, band, note)
    if second_ok:
        return EnsembleOrderDecision(True, "second", first_violation, second_violation, band, note)
    return EnsembleOrderDecision(
        False, None, largest, min(first_violation, second_violation), band, note
    )


def _quantile_combine(a: SingularEnsemble, b: SingularEnsemble, combine, what: str) -> SingularEnsemble:
    """Coordinate-wise ``combine`` of the two ensembles' quantiles, placed on
    ``a``'s rank pattern."""
    if a.samples.shape != b.samples.shape:
        raise ValueError("ensembles must have identical shapes")
    order = np.argsort(a.samples, axis=0, kind="stable")
    combined = combine(np.take_along_axis(a.samples, order, axis=0), np.sort(b.samples, axis=0))
    out = np.empty_like(combined)
    np.put_along_axis(out, order, combined, axis=0)
    # Re-sort within each sample: the per-coordinate quantile transform can
    # disturb the nonincreasing layout on rank ties.  The entrywise max or
    # min of finite nonnegative samples (no -0.0) is finite and nonnegative,
    # so the sorted, contiguous copy passes every check of SingularEnsemble.
    samples = np.sort(out, axis=1)[:, ::-1].copy()
    note = f"quantile {what} of paired ensembles on the first ensemble's rank pattern"
    return _unchecked(SingularEnsemble, samples=samples, seed=a.seed, copula_note=note)


def ensemble_lub(a: SingularEnsemble, b: SingularEnsemble) -> SingularEnsemble:
    """Coordinate-wise quantile maximum realized on the first ensemble's copula."""
    return _quantile_combine(a, b, np.maximum, "max")


def ensemble_glb(a: SingularEnsemble, b: SingularEnsemble) -> SingularEnsemble:
    """Coordinate-wise quantile minimum realized on the first ensemble's copula."""
    return _quantile_combine(a, b, np.minimum, "min")


def to_json_dict(channel: GaussianChannel) -> dict:
    return {"type": "lgc", "H": channel.H.tolist(), "Sigma": channel.Sigma.tolist()}


def from_json_dict(obj: dict) -> GaussianChannel:
    if obj.get("type") != "lgc":
        raise ValueError("expected a document with type 'lgc'")
    return GaussianChannel(*(_number_array(_required(obj, key, "lgc document"), key)
                             for key in ("H", "Sigma")))


def ensemble_to_json_dict(ensemble: SingularEnsemble) -> dict:
    return {
        "type": "lgc_ensemble",
        "samples": ensemble.samples.tolist(),
        "seed": ensemble.seed,
        "copula_note": ensemble.copula_note,
    }


def ensemble_from_json_dict(obj: dict) -> SingularEnsemble:
    if obj.get("type") != "lgc_ensemble":
        raise ValueError("expected a document with type 'lgc_ensemble'")
    return SingularEnsemble(
        _number_array(_required(obj, "samples", "lgc_ensemble document"), "samples"),
        seed=obj.get("seed", 0),
        copula_note=str(obj.get("copula_note", "")),
    )
