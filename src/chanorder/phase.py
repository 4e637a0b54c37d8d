"""Phase-degraded channels as distributions on the torus.

A channel whose gain and noise phases are random is captured by the joint
distribution of the two angles, represented here by a truncated grid of its
two-dimensional characteristic-function coefficients.  Applying a random
input/output phase pair multiplies that grid pointwise with the coefficient
grid of the pair ``(output + input phase, output phase)``, so degradation,
extremal channels, and the can-it-be-undone test all live in the coefficient
domain.  Every grid is validated on construction: its smoothed density is
evaluated at ``4 * order`` points per axis by one inverse FFT down the
``order + 1`` nonnegative-frequency columns and one real inverse FFT along
the rows, which suffices because the density is real.

Independent phases give the rank-one grid ``outer(h, v)``.
``product_channel``, ``joint_from_marginals`` and the three extremal
constructors reach the same verdicts on it from its two factors when both
are exactly Hermitian.  The smoothed density is then ``f_h[k] * f_v[l]``
for the factors' real 1-D Fejer series on the same points, so its minimum
is the least of the four products of their extremes: two
length-``4 * order`` transforms instead of the 2-D one.
If also ``max|h| * max|v|``, widened by a few rounding errors, is within the
magnitude bound, the grid's entries are finite and within that bound and
the grid is Hermitian to rounding, so of the entrywise checks only the
origin is read: O(order) work instead of O(order**2).  Any other factor
pair, and every other grid, takes the full checks, with the same
exceptions and messages.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .numerics import _checked_count, _frozen, _number_array, _owned_array, _required, _unchecked

__all__ = [
    "CONVENTIONS",
    "EPS_GIBBS",
    "TorusSpectrum",
    "WrappedGaussian",
    "WrappedCauchy",
    "UniformPhase",
    "PointPhase",
    "Strictness",
    "StrictnessResult",
    "from_wrapped",
    "product_channel",
    "from_grid",
    "joint_from_marginals",
    "degradation_coeffs",
    "degrade",
    "is_strict",
    "worst_channel",
    "output_uniformizing_degradation",
    "input_uniformizing_degradation",
    "wrapped_lub",
    "wrapped_glb",
    "to_json_dict",
    "from_json_dict",
]

EPS_GIBBS = 1e-6

# The largest order of a grid built from an order alone (by from_wrapped,
# from_grid or a rank-one product), checked before anything of that size is
# allocated: a (1025 x 1025) complex grid is 16 MiB.  A grid read from a
# document is bounded by the document.
_MAX_ORDER = 512

_ROLES = ("channel", "degradation")
_HERMITIAN_TOL = 1e-12
_MAGNITUDE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class TorusSpectrum:
    """Truncated characteristic-function grid of a torus distribution.

    ``coeffs[m + order, n + order]`` holds the coefficient at frequency
    ``(m, n)`` for ``m, n`` in ``[-order, order]``.  Construction enforces a
    unit coefficient at the origin, Hermitian symmetry, magnitudes at most 1,
    and nonnegativity of the smoothed reconstruction: the raw truncated
    partial sum oscillates below zero for perfectly legitimate atomic
    distributions, so the check convolves with the nonnegative triangular
    (Fejer) kernel, which is nonnegative for every genuine distribution and
    still rejects grids that are not characteristic coefficients at all.
    Spectra built from two exactly Hermitian factors (see the module
    docstring for which) take that minimum, and when the factors'
    magnitudes bound the grid's also the entrywise checks, from the
    factors; every other grid, including one passed here directly, is
    checked entry by entry and in 2-D.
    """

    order: int
    coeffs: np.ndarray
    role: str = "channel"

    def __post_init__(self):
        order, coeffs = _checked_grid(self.order, _owned_array(self.coeffs, dtype=complex), self.role)
        _frozen(self, order=order, coeffs=coeffs)

    def coefficient(self, m: int, n: int) -> complex:
        """Coefficient at frequency ``(m, n)``."""
        if abs(m) > self.order or abs(n) > self.order:
            raise ValueError("frequency outside the truncation order")
        return complex(self.coeffs[m + self.order, n + self.order])


def _checked_grid(order, coeffs, role: str, factors=None) -> tuple[int, np.ndarray]:
    """Every spectrum invariant of the complex grid ``coeffs``; returns the order and the grid.

    ``factors`` is ``(h, v)`` when the grid is ``np.outer(h, v)``.  If both
    are exactly Hermitian, the density minimum comes from their 1-D series,
    and if also ``_bounded_product(h, v)`` holds, the entrywise checks of the
    grid, which would pass, are skipped: only the origin is read.
    """
    order = _checked_count(order, "order")
    side = 2 * order + 1
    if coeffs.shape != (side, side):
        raise ValueError(f"coeffs must have shape {(side, side)}")
    rank_one = factors is not None and all(np.array_equal(np.conj(s[::-1]), s) for s in factors)
    if rank_one and _bounded_product(*factors):
        _check_origin(order, coeffs)
    else:
        _check_entries(order, coeffs, role)
    low = _product_min(order, *factors) if rank_one else _smoothed_min(order, coeffs)
    if low < -EPS_GIBBS:
        raise ValueError(f"reconstructed density dips to {low:.3e}; not a distribution")
    return order, coeffs


def _check_entries(order: int, coeffs: np.ndarray, role: str) -> None:
    """The full-grid checks: finite, role, origin, Hermitian, magnitudes."""
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coeffs must be finite")
    if role not in _ROLES:
        raise ValueError(f"role must be one of {_ROLES}")
    _check_origin(order, coeffs)
    hermitian_gap = float(np.max(np.abs(np.conj(np.flip(coeffs)) - coeffs)))
    if hermitian_gap > _HERMITIAN_TOL:
        raise ValueError(f"coefficients are not Hermitian: gap {hermitian_gap:.3e}")
    if float(np.abs(coeffs).max()) > 1.0 + _MAGNITUDE_TOL:
        raise ValueError("coefficient magnitudes must not exceed 1")


def _check_origin(order: int, coeffs: np.ndarray) -> None:
    if abs(coeffs[order, order] - 1.0) > _HERMITIAN_TOL:
        raise ValueError("the coefficient at the origin must equal 1")


# A complex product, and the modulus of it and of each factor, round by less
# than this factor together.
_PRODUCT_ROUNDING = 1.0 + 8.0 * np.finfo(float).eps


def _bounded_product(h: np.ndarray, v: np.ndarray) -> bool:
    # With exactly Hermitian factors, outer(h, v) passes every entrywise
    # check when this holds: its entries are finite, their moduli stay
    # within the magnitude tolerance, and entry (m, n) is computed as the
    # exact conjugate of entry (-m, -n), whose gap is 0 (at most a few eps
    # under any rounding) and far below _HERMITIAN_TOL.  A NaN or an infinity
    # in a factor makes the product NaN or inf, so the test fails.  Python
    # floats multiply inf by 0 without a numpy warning.
    bound = float(np.abs(h).max()) * float(np.abs(v).max())
    return bound * _PRODUCT_ROUNDING <= 1.0 + _MAGNITUDE_TOL


def _checked_order(order) -> int:
    """``_checked_count(order, "order")``; ValueError past ``_MAX_ORDER``."""
    order = _checked_count(order, "order")
    if order > _MAX_ORDER:
        side = 2 * order + 1
        raise ValueError(f"order {order} exceeds the bound of {_MAX_ORDER}: "
                         f"its grid would hold {side}x{side} coefficients")
    return order


def _product_spectrum(h: np.ndarray, v: np.ndarray, role: str = "channel") -> TorusSpectrum:
    """Spectrum of the rank-one grid ``np.outer(h, v)`` in ``role``."""
    order = _checked_order((h.size - 1) // 2)
    order, coeffs = _checked_grid(order, np.outer(h, v), role, factors=(h, v))
    # Every check has run on a fresh grid: fill the frozen fields without a second one.
    return _unchecked(TorusSpectrum, order=order, coeffs=coeffs, role=role)


def _product_min(order: int, h: np.ndarray, v: np.ndarray) -> float:
    # Under the tensor Fejer weights the smoothed density of outer(h, v) at
    # grid point (k, l) is f_h[k] * f_v[l] on the P points _smoothed_min
    # uses; f_h and f_v are real because h and v are Hermitian, so the least
    # product is one of the four products of their extremes.
    points = max(4 * order, 8)
    weights = 1.0 - np.arange(order + 1) / (order + 1.0)
    f_h, f_v = np.fft.irfft(np.stack([h[order:], v[order:]]) * weights, n=points, axis=1)
    low = min(a * b for a in (f_h.min(), f_h.max()) for b in (f_v.min(), f_v.max()))
    return float(low) * points**2 / (2.0 * np.pi) ** 2


def _smoothed_min(order: int, coeffs: np.ndarray) -> float:
    # The real part of the full series is the series of the grid's Hermitian
    # part, whose sum is real and so fixed by the columns n >= 0: one inverse
    # FFT down those columns, then one real inverse FFT along the rows.
    # Frequency m sits at index m mod P; the inverse transforms sum at
    # -2*pi*k/P, which runs over the same P points.
    points = max(4 * order, 8)
    m = np.arange(-order, order + 1)
    weights = 1.0 - np.abs(m) / (order + 1.0)
    hermitian = (coeffs[:, order:] + np.conj(coeffs[::-1, order::-1])) / 2.0
    half = np.zeros((points, points // 2 + 1), dtype=complex)
    half[m % points, : order + 1] = hermitian * np.outer(weights, weights[order:])
    half[:, : order + 1] = np.fft.ifft(half[:, : order + 1], axis=0)
    density = np.fft.irfft(half, n=points, axis=1)
    return float(density.min()) * points**2 / (2.0 * np.pi) ** 2


@dataclass(frozen=True)
class WrappedGaussian:
    """Gaussian law wrapped on the circle; coefficients exp(jm*mean - sigma2*m^2/2)."""

    mean: float = 0.0
    sigma2: float = 1.0


@dataclass(frozen=True)
class WrappedCauchy:
    """Cauchy law wrapped on the circle; coefficients exp(jm*mean - gamma*|m|)."""

    mean: float = 0.0
    gamma: float = 1.0


@dataclass(frozen=True)
class UniformPhase:
    """Uniform angle; coefficients are the Kronecker delta."""


@dataclass(frozen=True)
class PointPhase:
    """Deterministic angle; coefficients exp(jm*angle)."""

    angle: float = 0.0


def from_wrapped(family, order: int) -> np.ndarray:
    """Characteristic sequence of a parametric circular family.

    Returns the ``2*order + 1`` coefficients at frequencies
    ``-order .. order``, sampled from the continuous characteristic function
    of the unwrapped law.  Every parameter must be finite, and so must the
    mean or angle times ``order``; a ``ValueError`` names the one that is not.
    ``order`` is at most 512, the bound of every grid built from an order.
    """
    order = _checked_order(order)
    m = np.arange(-order, order + 1)
    # A scale whose product with m or m**2 passes the float range gives the
    # coefficient's limit exp(-inf) = 0.
    if isinstance(family, WrappedGaussian):
        _check_parameters(family, order, "mean", "sigma2")
        with np.errstate(over="ignore"):
            return np.exp(1j * m * family.mean - family.sigma2 * m.astype(float) ** 2 / 2.0)
    if isinstance(family, WrappedCauchy):
        _check_parameters(family, order, "mean", "gamma")
        with np.errstate(over="ignore"):
            return np.exp(1j * m * family.mean - family.gamma * np.abs(m))
    if isinstance(family, UniformPhase):
        return (m == 0).astype(complex)
    if isinstance(family, PointPhase):
        _check_parameters(family, order, "angle")
        return np.exp(1j * m * family.angle)
    raise ValueError(f"unknown circular family: {family!r}")


def _check_parameters(family, order: int, angle: str, scale: str | None = None) -> None:
    """Finite parameters, a nonnegative scale, and finite angles ``m * angle``."""
    for name in (angle, scale) if scale else (angle,):
        value = getattr(family, name)
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not np.isfinite(order * float(getattr(family, angle))):
        raise ValueError(f"{angle} times the order {order} is not finite")
    if scale and getattr(family, scale) < 0.0:
        raise ValueError(f"{scale} must be nonnegative")


def _validate_sequence(seq) -> np.ndarray:
    seq = np.asarray(seq, dtype=complex).ravel()
    if seq.size < 3 or seq.size % 2 == 0:
        raise ValueError("a coefficient sequence must have odd length >= 3")
    return seq


def product_channel(h_marginal, v_marginal) -> TorusSpectrum:
    """Channel spectrum for independent gain and noise phases.

    The grid factorizes into the outer product of the two marginal
    sequences; all spectrum invariants are enforced on assembly.
    """
    h = _validate_sequence(h_marginal)
    v = _validate_sequence(v_marginal)
    if h.size != v.size:
        raise ValueError("marginal sequences must share one order")
    return _product_spectrum(h, v)


def from_grid(pdf_samples, order: int, role: str = "channel") -> TorusSpectrum:
    """Spectrum of a density sampled on a uniform grid over the torus.

    The samples are renormalized to a probability measure on the grid nodes
    and the coefficients are the exact transform of that discrete measure.
    ``order`` is at most 512.
    """
    order = _checked_order(order)
    pdf = np.asarray(pdf_samples, dtype=float)
    if pdf.ndim != 2 or pdf.size == 0:
        raise ValueError("pdf_samples must form a nonempty 2-D grid")
    if not np.all(np.isfinite(pdf)) or float(pdf.min()) < 0.0:
        raise ValueError("pdf_samples must be finite and nonnegative")
    total = float(pdf.sum())
    if total <= 0.0:
        raise ValueError("pdf_samples must not be identically zero")
    weights = pdf / total
    m = np.arange(-order, order + 1)
    spectrum = np.fft.ifft2(weights) * weights.size
    coeffs = spectrum[np.ix_(m % pdf.shape[0], m % pdf.shape[1])]
    coeffs[order, order] = 1.0
    return TorusSpectrum(order, coeffs, role=role)


def joint_from_marginals(input_family, output_family, order: int) -> TorusSpectrum:
    """Joint law of independent input and output phases."""
    return _product_spectrum(from_wrapped(input_family, order), from_wrapped(output_family, order))


def degradation_coeffs(joint: TorusSpectrum, order: int | None = None) -> TorusSpectrum:
    """Reindex a joint phase law into the multiplicative degradation grid.

    ``joint`` holds the coefficients ``E[exp(j(p*input + q*output))]`` of the
    raw input/output phase pair.  The grid entry at ``(m, n)`` is the joint
    coefficient at ``(m, m + n)``, which needs the joint spectrum to extend
    to twice the requested order.
    """
    if order is None:
        order = joint.order // 2
    order = _checked_count(order, "order")
    if joint.order < 2 * order:
        raise ValueError(
            f"joint order {joint.order} too small: need at least {2 * order} for order {order}"
        )
    m = np.arange(-order, order + 1)[:, None]
    out = joint.coeffs[m + joint.order, (m + m.T) + joint.order]
    return TorusSpectrum(order, out, role="degradation")


def _check_roles(channel: TorusSpectrum, degradation: TorusSpectrum) -> None:
    if channel.role != "channel":
        raise ValueError("first argument must be a channel spectrum")
    if degradation.role != "degradation":
        raise ValueError("second argument must be a degradation spectrum")
    if channel.order != degradation.order:
        raise ValueError("channel and degradation orders must match")


def degrade(channel: TorusSpectrum, degradation: TorusSpectrum) -> TorusSpectrum:
    """Apply a phase degradation: pointwise product of coefficient grids."""
    _check_roles(channel, degradation)
    return TorusSpectrum(channel.order, channel.coeffs * degradation.coeffs, role="channel")


class Strictness(Enum):
    STRICT = "strict"
    UNDOABLE = "undoable"
    NULL_CHANNEL = "null_channel"


@dataclass(frozen=True)
class StrictnessResult:
    """Classification of a degradation against a channel.

    ``witness`` is set only for UNDOABLE: one frequency ``(m, n)`` on the
    channel support where the degradation keeps unit magnitude (the linear
    relation behind it uses the integers ``a = m`` and ``b = m + n``).
    """

    kind: Strictness
    witness: tuple[int, int] | None = None


# Printed with every phase result by the command-line front end.
CONVENTIONS = (
    "strict = cannot be undone by any further phase degradation",
    "a null (worst) channel is excluded from the strictness question",
)


def is_strict(
    channel: TorusSpectrum,
    degradation: TorusSpectrum,
    epsilon: float = 1e-9,
) -> StrictnessResult:
    """Decide whether a degradation can be undone by another one.

    Undoing requires the degradation grid to keep magnitude 1 everywhere on
    the channel's support (origin excluded); if it shrinks any supported
    coefficient the degradation is strict.  A channel with no support off
    the origin is the null (worst) channel and is excluded.  Support is
    judged against ``epsilon``, and only frequencies other than the origin
    count (the origin satisfies the unit-magnitude relation trivially).
    """
    _check_roles(channel, degradation)
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    order = channel.order
    support = np.abs(channel.coeffs) > epsilon
    support[order, order] = False
    if not support.any():
        return StrictnessResult(Strictness.NULL_CHANNEL)
    weak = support & (np.abs(degradation.coeffs) < 1.0 - epsilon)
    if weak.any():
        return StrictnessResult(Strictness.STRICT)
    rows, cols = np.nonzero(support)
    return StrictnessResult(Strictness.UNDOABLE, witness=(int(rows[0] - order), int(cols[0] - order)))


# The extremal grids are rank one: outer(delta, delta), outer(1, delta) and
# outer(delta, 1), for the sequences of a uniform angle (the Kronecker delta)
# and of the angle 0 (all ones).
def worst_channel(order: int) -> TorusSpectrum:
    """Channel with both phases uniform and independent: the absorbing bottom."""
    delta = from_wrapped(UniformPhase(), order)
    return _product_spectrum(delta, delta)


def output_uniformizing_degradation(order: int) -> TorusSpectrum:
    """Degradation that uniformizes the noise phase for a fixed gain phase.

    Realized by an output phase that is uniform with the input phase set to
    its negation; the grid keeps only the ``n = 0`` column, so a degraded
    channel keeps exactly its gain-phase marginal.
    """
    ones = from_wrapped(PointPhase(), order)
    return _product_spectrum(ones, from_wrapped(UniformPhase(), order), "degradation")


def input_uniformizing_degradation(order: int) -> TorusSpectrum:
    """Degradation by a uniform input phase: keeps only the noise-phase marginal."""
    ones = from_wrapped(PointPhase(), order)
    return _product_spectrum(from_wrapped(UniformPhase(), order), ones, "degradation")


_SCALES = {WrappedGaussian: "sigma2", WrappedCauchy: "gamma"}


def _wrapped_pick(a, b, pick):
    scale = _SCALES.get(type(a))
    if scale is None or type(b) is not type(a):
        raise ValueError("lattice operations need two members of one wrapped family "
                         "(WrappedGaussian or WrappedCauchy)")
    if abs(a.mean - b.mean) > 1e-12:
        raise ValueError("lattice operations need equal means")
    return replace(a, **{scale: pick(getattr(a, scale), getattr(b, scale))})


def wrapped_lub(a, b):
    """Scale maximum within one wrapped family (the noisier member)."""
    return _wrapped_pick(a, b, max)


def wrapped_glb(a, b):
    """Scale minimum within one wrapped family (the cleaner member)."""
    return _wrapped_pick(a, b, min)


def to_json_dict(spectrum: TorusSpectrum) -> dict:
    """JSON object for a spectrum file: row-major [re, im] pairs."""
    return {
        "type": "torus",
        "order": spectrum.order,
        "coeffs": spectrum.coeffs.ravel().view(float).reshape(-1, 2).tolist(),
        "role": spectrum.role,
    }


def from_json_dict(obj: dict) -> TorusSpectrum:
    if obj.get("type") != "torus":
        raise ValueError("expected a document with type 'torus'")
    order = _checked_count(_required(obj, "order", "torus document"), "order")
    side = 2 * order + 1
    pairs = _number_array(_required(obj, "coeffs", "torus document"), "coefficients")
    if pairs.shape != (side * side, 2):
        raise ValueError(f"coeffs must hold {side * side} [re, im] pairs for order {order}")
    # The complex view of the pairs keeps -0.0.
    coeffs = np.ascontiguousarray(pairs, dtype=float).view(complex).reshape(side, side)
    return TorusSpectrum(order, coeffs, role=obj.get("role", "channel"))

