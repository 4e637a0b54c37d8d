"""Additive infinitely divisible noise channels ordered by convolution factor.

A channel is represented by the nondecreasing bounded function from the
characteristic-exponent representation of its zero-mean, finite-variance
noise law: an absolutely continuous slope sampled on a grid plus a finite
list of positive jumps.  Comparing two channels amounts to checking that the
difference of the two representations is itself nondecreasing; the lattice
join takes pointwise maxima of slopes and of jump masses, and the meet
takes minima.  Jumps of two profiles pair one-to-one when their locations
lie within ``ATOM_LOCATION_TOL``, and a pair sits at the smaller of its two
locations; an unpaired jump faces mass 0.

The identical machinery orders stationary Gaussian-process noise by its
power spectral density: construct the profile with ``flag="spectral"`` and
the comparison and lattice code paths are unchanged.

Convention (printed by the CLI with every result): the larger profile is the
noisier, *included* (worse) channel; the including (better) channel has the
smaller profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral, Real

import numpy as np

from .numerics import _frozen, _number_array, _owned_array, _required, _unchecked, checked_tolerance

__all__ = [
    "CONVENTIONS",
    "ORDER_CONVENTION",
    "ATOM_LOCATION_TOL",
    "Relation",
    "OrderResult",
    "MonotoneProfile",
    "default_grid",
    "gaussian",
    "check_order",
    "lub",
    "glb",
    "profile_sum",
    "variance",
    "log_cf",
    "to_json_dict",
    "from_json_dict",
]

ORDER_CONVENTION = (
    "larger profile = more noise = included (worse) channel; "
    "the including (better) channel has the smaller profile"
)
CONVENTIONS = (ORDER_CONVENTION,)

ATOM_LOCATION_TOL = 1e-9

_DEFAULT_POINTS = 2049  # 2048 panels
_DEFAULT_U_MAX = 10.0

_FLAGS = ("noise_K", "spectral")


class Relation(Enum):
    FIRST_WORSE = "first_worse"
    SECOND_WORSE = "second_worse"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class OrderResult:
    """Pairwise comparison outcome.

    ``max_violation`` is the smaller of the two one-sided violations, i.e.
    the distance from comparability: ~0 when the profiles are ordered,
    above the tolerance when they are incomparable.
    """

    relation: Relation
    max_violation: float


def default_grid() -> np.ndarray:
    return np.linspace(-_DEFAULT_U_MAX, _DEFAULT_U_MAX, _DEFAULT_POINTS)


@dataclass(frozen=True, eq=False)
class MonotoneProfile:
    """Nondecreasing bounded representation of an infinitely divisible noise.

    Parameters
    ----------
    grid : strictly increasing 1-D abscissae.
    density : slope of the absolutely continuous part, sampled on ``grid``;
        values below ``-1e-12`` are rejected, small negatives are clamped
        to 0.  Treated as 0 outside the grid's span.  ``None`` is the zero
        slope: ``MonotoneProfile(atoms=...)`` is a pure-jump profile and
        ``MonotoneProfile()`` the zero-noise one.
    atoms : finite list of ``(location, mass)`` jumps with positive masses
        and locations pairwise farther apart than the matching tolerance.
    flag : "noise_K" for noise representations, "spectral" for power
        spectral distribution functions.
    """

    grid: np.ndarray = field(default_factory=default_grid)
    density: np.ndarray | None = None
    atoms: tuple[tuple[float, float], ...] = ()
    flag: str = "noise_K"

    def __post_init__(self):
        grid = _owned_array(self.grid).ravel()
        if grid.size < 2 or not np.all(np.isfinite(grid)):
            raise ValueError("grid needs at least two finite points")
        if not np.all(np.diff(grid) > 0.0):
            raise ValueError("grid must be strictly increasing")
        if self.density is None:
            density = np.zeros(grid.size)
        else:
            density = _owned_array(self.density).ravel()
        if density.size != grid.size or not np.all(np.isfinite(density)):
            raise ValueError("density must be finite and match the grid length")
        if float(density.min()) < -1e-12:
            raise ValueError("density must be nonnegative")
        np.clip(density, 0.0, None, out=density)

        atoms = tuple((float(loc), float(mass)) for loc, mass in self.atoms)
        atoms = tuple(sorted(atoms))
        for loc, mass in atoms:
            if not (np.isfinite(loc) and np.isfinite(mass)):
                raise ValueError("atoms must be finite")
            if mass <= 0.0:
                raise ValueError("atom masses must be positive")
        locations = [loc for loc, _ in atoms]
        if any(b - a <= ATOM_LOCATION_TOL for a, b in zip(locations, locations[1:])):
            raise ValueError("atom locations must be separated by more than the matching tolerance")
        if self.flag not in _FLAGS:
            raise ValueError(f"flag must be one of {_FLAGS}")
        _frozen(self, grid=grid, density=density, atoms=atoms)


def gaussian(sigma2: float) -> MonotoneProfile:
    """Profile of a zero-mean Gaussian noise with the given variance."""
    sigma2 = float(sigma2)
    if sigma2 < 0.0:
        raise ValueError("variance must be nonnegative")
    if sigma2 == 0.0:
        return MonotoneProfile()
    return MonotoneProfile(atoms=((0.0, sigma2),))


def _aligned(a: MonotoneProfile, b: MonotoneProfile):
    """Both profiles on shared abscissae: ``(grid, da, db, locations, ma, mb)``.

    The densities are interpolated onto the union grid (linear, so they stay
    nonnegative; zero outside each profile's span).  Two profiles on
    bitwise-equal grids skip that: the union is their grid and each density
    is its own, exactly what the interpolation returns there.  (Grids that
    differ only in the sign of a zero take the union, which may keep either
    zero.)  The atoms pair one-to-one by a sorted merge: two atoms within
    ``ATOM_LOCATION_TOL`` form one site at the smaller of their locations,
    and an unpaired atom faces mass 0.  The sites stay more than the
    tolerance apart.
    """
    if a.flag != b.flag:
        raise ValueError(f"interpretation flags differ: {a.flag!r} vs {b.flag!r}")
    if a.grid.tobytes() == b.grid.tobytes():
        grid, da, db = a.grid, a.density, b.density
    else:
        grid = np.union1d(a.grid, b.grid)
        da = np.interp(grid, a.grid, a.density, left=0.0, right=0.0)
        db = np.interp(grid, b.grid, b.density, left=0.0, right=0.0)
    sites: list[tuple[float, float, float]] = []
    i = j = 0
    while i < len(a.atoms) or j < len(b.atoms):
        la, ma = a.atoms[i] if i < len(a.atoms) else (np.inf, 0.0)
        lb, mb = b.atoms[j] if j < len(b.atoms) else (np.inf, 0.0)
        paired = abs(la - lb) <= ATOM_LOCATION_TOL
        take_a, take_b = paired or la < lb, paired or lb < la
        sites.append((min(la, lb), ma if take_a else 0.0, mb if take_b else 0.0))
        i, j = i + take_a, j + take_b
    locations, ma, mb = np.array(sites, dtype=float).reshape(-1, 3).T
    return grid, da, db, locations, ma, mb


def check_order(a: MonotoneProfile, b: MonotoneProfile, tolerance: float = 1e-9) -> OrderResult:
    """Compare two profiles in the convolution-factor order.

    SECOND_WORSE means ``b - a`` is a valid profile within the tolerance
    (``b`` carries at least the noise of ``a``); FIRST_WORSE is symmetric;
    EQUAL when both hold; INCOMPARABLE when neither does.  ``tolerance``
    must be finite and >= 0 (0 compares exactly); anything else raises
    ValueError.
    """
    tolerance = checked_tolerance(tolerance)
    _, da, db, _, ma, mb = _aligned(a, b)
    # How far ``b - a`` (second) and ``a - b`` (first) are from valid profiles.
    second = float(np.max(np.concatenate([da - db, ma - mb]), initial=0.0))
    first = float(np.max(np.concatenate([db - da, mb - ma]), initial=0.0))
    second_ok = second <= tolerance
    first_ok = first <= tolerance
    if second_ok and first_ok:
        relation = Relation.EQUAL
    elif second_ok:
        relation = Relation.SECOND_WORSE
    elif first_ok:
        relation = Relation.FIRST_WORSE
    else:
        relation = Relation.INCOMPARABLE
    return OrderResult(relation, float(min(first, second)))


def _combined(a: MonotoneProfile, b: MonotoneProfile, op, name: str) -> MonotoneProfile:
    """``op`` of the slopes and of the paired masses; zero masses are dropped.

    ``_aligned`` returns the parts of a valid profile: a strictly increasing
    finite grid (``a``'s own, or the union of two such grids), slopes that
    are >= 0 but for rounding in the interpolation, and sites in increasing
    order more than the tolerance apart.  A max, min or sum of those keeps
    all of it while it stays finite, so the result is built from the parts
    without validating them again; the slopes are clipped at 0, as
    ``MonotoneProfile`` does.  A result past the float range is refused
    instead: a sum can overflow, and so can the interpolation of slopes
    near the float limit on close grid points.
    """
    grid, da, db, locations, ma, mb = _aligned(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        density, masses = op(da, db), op(ma, mb)
        # Finite totals mean finite entries; a total past the float range
        # sends finite entries on to the exact check below.
        finite = math.isfinite(density.sum()) and math.isfinite(masses.sum())
    if not finite and not (np.all(np.isfinite(density)) and np.all(np.isfinite(masses))):
        raise ValueError(f"the profile {name} overflows the float range")
    np.maximum(density, 0.0, out=density)  # np.clip(density, 0.0, None), in place
    keep = masses > 0.0
    atoms = tuple(zip(locations[keep].tolist(), masses[keep].tolist()))
    return _unchecked(MonotoneProfile, grid=grid, density=density, atoms=atoms, flag=a.flag)


def lub(a: MonotoneProfile, b: MonotoneProfile) -> MonotoneProfile:
    """Least upper bound: pointwise maximum of slopes.

    Unpaired jumps are kept in full; a pair of jumps within
    ``ATOM_LOCATION_TOL`` takes the larger of the two masses.
    """
    return _combined(a, b, np.maximum, "lub")


def glb(a: MonotoneProfile, b: MonotoneProfile) -> MonotoneProfile:
    """Greatest lower bound: pointwise minimum of slopes, paired jumps only."""
    return _combined(a, b, np.minimum, "glb")


def profile_sum(a: MonotoneProfile, b: MonotoneProfile) -> MonotoneProfile:
    """Profile of the sum of two independent noises: slopes and jumps add.

    Raises ValueError when a sum of slopes or of masses overflows the float
    range.
    """
    return _combined(a, b, np.add, "sum")


def variance(profile: MonotoneProfile) -> float:
    """Total mass of the profile, i.e. the noise variance."""
    return float(np.trapezoid(profile.density, profile.grid) + sum(m for _, m in profile.atoms))


def _kernel(x: np.ndarray) -> np.ndarray:
    """(exp(jx) - 1 - jx) / x**2, stable through x = 0 and at every finite x.

    Its magnitude is at most 1/2; dividing by x twice keeps x**2 from
    overflowing past |x| = 1e154.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=complex)
    small = np.abs(x) < 1e-4
    xs = x[small]
    out[small] = -0.5 - 1j * xs / 6.0 + xs**2 / 24.0 + 1j * xs**3 / 120.0
    xl = x[~small]
    out[~small] = (np.exp(1j * xl) - 1.0 - 1j * xl) / xl / xl
    return out


def log_cf(profile: MonotoneProfile, zeta: float) -> complex:
    """Log characteristic function of the noise at frequency ``zeta``.

    Trapezoid quadrature of the characteristic-exponent integrand against
    the slope, plus exact jump terms; the integrand at the origin is
    ``-zeta**2 / 2``, which makes a jump at 0 of mass ``s`` contribute
    exactly ``-s * zeta**2 / 2``.  The zero profile gives 0 at every finite
    ``zeta``; a value past the float range, or a ``zeta * u`` past it at an
    abscissa ``u`` that carries mass, raises ``ValueError``.
    """
    if profile.flag != "noise_K":
        raise ValueError("log_cf is defined for noise_K profiles only")
    z = float(zeta)
    if not np.isfinite(z):
        raise ValueError(f"zeta must be finite, got {zeta!r}")
    # Where the slope is 0 the integrand is evaluated at u = 0, so z * u
    # stays finite off the support.
    grid = np.where(profile.density > 0.0, profile.grid, 0.0)
    reach = max([float(np.abs(grid).max()), *(abs(loc) for loc, _ in profile.atoms)])
    if not np.isfinite(z * reach):
        raise ValueError(f"zeta={zeta!r} times the profile's support exceeds the float range")
    smooth = np.trapezoid(_kernel(z * grid) * profile.density, profile.grid)
    jumps = sum(mass * _kernel(np.array([z * loc]))[0] for loc, mass in profile.atoms)
    # The kernel sum is at most half the variance, so z * total is finite and
    # the product overflows only when the value does.
    total = complex(smooth + jumps)
    value = complex(z * (z * total.real), z * (z * total.imag))
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise ValueError(f"log_cf at zeta={zeta!r} exceeds the float range")
    return value


def to_json_dict(profile: MonotoneProfile) -> dict:
    """JSON object for a profile file (uniform grids only)."""
    steps = np.diff(profile.grid)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("only profiles on uniform grids are serializable")
    return {
        "type": "kfunction",
        "flag": profile.flag,
        "grid": {
            "min": float(profile.grid[0]),
            "max": float(profile.grid[-1]),
            "points": int(profile.grid.size),
        },
        "density": profile.density.tolist(),
        "atoms": [[loc, mass] for loc, mass in profile.atoms],
    }


def from_json_dict(obj: dict) -> MonotoneProfile:
    if obj.get("type") != "kfunction":
        raise ValueError("expected a document with type 'kfunction'")
    spec = _required(obj, "grid", "kfunction document")
    if not isinstance(spec, dict):
        raise ValueError(f"grid must be an object with min, max and points, got {spec!r}")
    density = _number_array(_required(obj, "density", "kfunction document"), "density")
    points = _required(spec, "points", "kfunction grid")
    if isinstance(points, bool) or not isinstance(points, Integral) or points != density.size:
        raise ValueError(
            f"grid.points must be an integer equal to the {density.size} density values, "
            f"got {points!r}"
        )
    bounds = _required(spec, "min", "kfunction grid"), _required(spec, "max", "kfunction grid")
    if any(isinstance(v, bool) or not isinstance(v, Real) for v in bounds):
        raise ValueError(f"grid.min and grid.max must be numbers, got {bounds!r}")
    try:
        low, high = float(bounds[0]), float(bounds[1])
    except OverflowError:  # an integer past the float range
        low = high = np.inf
    # Checked before np.linspace, which warns on a span that is not finite.
    if not np.isfinite(high - low):
        raise ValueError("grid needs at least two finite points")
    grid = np.linspace(low, high, int(points))
    pairs = _number_array(obj.get("atoms", []), "atoms")
    if pairs.shape != (0,) and (pairs.ndim != 2 or pairs.shape[1] != 2):
        raise ValueError("atoms must be a list of [location, mass] pairs")
    atoms = tuple((float(loc), float(mass)) for loc, mass in pairs)
    return MonotoneProfile(
        grid=grid,
        density=density,
        atoms=atoms,
        flag=obj.get("flag", "noise_K"),
    )
