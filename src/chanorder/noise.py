"""Additive infinitely divisible noise channels ordered by convolution factor.

A channel is represented by the nondecreasing bounded function from the
characteristic-exponent representation of its zero-mean, finite-variance
noise law: an absolutely continuous slope sampled on a grid plus a finite
list of positive jumps.  Comparing two channels amounts to checking that the
difference of the two representations is itself nondecreasing; the lattice
join takes pointwise maxima of slopes (summing jumps at distinct locations,
taking the larger jump at shared locations) and the meet is the dual.

The identical machinery orders stationary Gaussian-process noise by its
power spectral density: construct the profile with ``flag="spectral"`` and
the comparison and lattice code paths are unchanged.

Convention (printed by the CLI with every result): the larger profile is the
noisier, *included* (worse) channel; the including (better) channel has the
smaller profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .numerics import checked_tolerance

__all__ = [
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


@dataclass(frozen=True)
class MonotoneProfile:
    """Nondecreasing bounded representation of an infinitely divisible noise.

    Parameters
    ----------
    grid : strictly increasing 1-D abscissae.
    density : slope of the absolutely continuous part, sampled on ``grid``;
        values below ``-1e-12`` are rejected, small negatives are clamped
        to 0.  Treated as 0 outside the grid's span.
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
        grid = np.asarray(self.grid, dtype=float).ravel()
        if grid.size < 2 or not np.all(np.isfinite(grid)):
            raise ValueError("grid needs at least two finite points")
        if not np.all(np.diff(grid) > 0.0):
            raise ValueError("grid must be strictly increasing")
        if self.density is None:
            density = np.zeros(grid.size)
        else:
            density = np.asarray(self.density, dtype=float).ravel()
        if density.size != grid.size or not np.all(np.isfinite(density)):
            raise ValueError("density must be finite and match the grid length")
        if float(density.min()) < -1e-12:
            raise ValueError("density must be nonnegative")
        density = np.clip(density, 0.0, None)

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

        grid.setflags(write=False)
        density.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def from_atoms(cls, atoms, flag: str = "noise_K", grid=None) -> "MonotoneProfile":
        """Pure-jump profile (zero absolutely continuous part)."""
        if grid is None:
            grid = default_grid()
        return cls(grid=grid, density=None, atoms=tuple(atoms), flag=flag)

    @classmethod
    def empty(cls, flag: str = "noise_K", grid=None) -> "MonotoneProfile":
        """The zero-noise profile."""
        return cls.from_atoms((), flag=flag, grid=grid)


def gaussian(sigma2: float) -> MonotoneProfile:
    """Profile of a zero-mean Gaussian noise with the given variance."""
    sigma2 = float(sigma2)
    if sigma2 < 0.0:
        raise ValueError("variance must be nonnegative")
    if sigma2 == 0.0:
        return MonotoneProfile.empty()
    return MonotoneProfile.from_atoms([(0.0, sigma2)])


def _require_same_flag(a: MonotoneProfile, b: MonotoneProfile):
    if a.flag != b.flag:
        raise ValueError(f"interpretation flags differ: {a.flag!r} vs {b.flag!r}")


def _union_grid(a: MonotoneProfile, b: MonotoneProfile) -> np.ndarray:
    return np.union1d(a.grid, b.grid)


def _resample(profile: MonotoneProfile, grid: np.ndarray) -> np.ndarray:
    # Linear interpolation preserves nonnegativity; zero outside the span.
    return np.interp(grid, profile.grid, profile.density, left=0.0, right=0.0)


def _matched_mass(atoms, location: float) -> float:
    for loc, mass in atoms:
        if abs(loc - location) <= ATOM_LOCATION_TOL:
            return mass
    return 0.0


def _one_sided_violation(low_density, high_density, low_atoms, high_atoms) -> float:
    """How far ``high - low`` is from being a valid profile (0 = valid)."""
    violation = float(np.max(low_density - high_density, initial=0.0))
    for loc, mass in low_atoms:
        violation = max(violation, mass - _matched_mass(high_atoms, loc))
    return max(violation, 0.0)


def check_order(a: MonotoneProfile, b: MonotoneProfile, tolerance: float = 1e-9) -> OrderResult:
    """Compare two profiles in the convolution-factor order.

    SECOND_WORSE means ``b - a`` is a valid profile within the tolerance
    (``b`` carries at least the noise of ``a``); FIRST_WORSE is symmetric;
    EQUAL when both hold; INCOMPARABLE when neither does.  ``tolerance``
    must be finite and >= 0 (0 compares exactly); anything else raises
    ValueError.
    """
    tolerance = checked_tolerance(tolerance)
    _require_same_flag(a, b)
    grid = _union_grid(a, b)
    da, db = _resample(a, grid), _resample(b, grid)
    second = _one_sided_violation(da, db, a.atoms, b.atoms)
    first = _one_sided_violation(db, da, b.atoms, a.atoms)
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


def _merge_atoms(a_atoms, b_atoms, mode: str) -> tuple[tuple[float, float], ...]:
    # mode: "max" keeps unmatched atoms, "min" drops them, "sum" adds masses.
    merged: list[tuple[float, float]] = []
    i = j = 0
    while i < len(a_atoms) and j < len(b_atoms):
        la, ma = a_atoms[i]
        lb, mb = b_atoms[j]
        if abs(la - lb) <= ATOM_LOCATION_TOL:
            mass = {"max": max(ma, mb), "min": min(ma, mb), "sum": ma + mb}[mode]
            merged.append((la, mass))
            i += 1
            j += 1
        elif la < lb:
            if mode != "min":
                merged.append((la, ma))
            i += 1
        else:
            if mode != "min":
                merged.append((lb, mb))
            j += 1
    if mode != "min":
        merged.extend(a_atoms[i:])
        merged.extend(b_atoms[j:])
    return tuple(merged)


def lub(a: MonotoneProfile, b: MonotoneProfile) -> MonotoneProfile:
    """Least upper bound: pointwise maximum of slopes.

    Jumps at distinct locations are both kept in full; a shared location
    takes the larger of the two masses.
    """
    _require_same_flag(a, b)
    grid = _union_grid(a, b)
    density = np.maximum(_resample(a, grid), _resample(b, grid))
    return MonotoneProfile(grid, density, _merge_atoms(a.atoms, b.atoms, "max"), a.flag)


def glb(a: MonotoneProfile, b: MonotoneProfile) -> MonotoneProfile:
    """Greatest lower bound: pointwise minimum of slopes, shared jumps only."""
    _require_same_flag(a, b)
    grid = _union_grid(a, b)
    density = np.minimum(_resample(a, grid), _resample(b, grid))
    return MonotoneProfile(grid, density, _merge_atoms(a.atoms, b.atoms, "min"), a.flag)


def profile_sum(a: MonotoneProfile, b: MonotoneProfile) -> MonotoneProfile:
    """Profile of the sum of two independent noises: slopes and jumps add."""
    _require_same_flag(a, b)
    grid = _union_grid(a, b)
    density = _resample(a, grid) + _resample(b, grid)
    return MonotoneProfile(grid, density, _merge_atoms(a.atoms, b.atoms, "sum"), a.flag)


def variance(profile: MonotoneProfile) -> float:
    """Total mass of the profile, i.e. the noise variance."""
    return float(np.trapezoid(profile.density, profile.grid) + sum(m for _, m in profile.atoms))


def _kernel(x: np.ndarray) -> np.ndarray:
    """(exp(jx) - 1 - jx) / x**2, stable through x = 0."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=complex)
    small = np.abs(x) < 1e-4
    xs = x[small]
    out[small] = -0.5 - 1j * xs / 6.0 + xs**2 / 24.0 + 1j * xs**3 / 120.0
    xl = x[~small]
    out[~small] = (np.exp(1j * xl) - 1.0 - 1j * xl) / (xl * xl)
    return out


def log_cf(profile: MonotoneProfile, zeta: float) -> complex:
    """Log characteristic function of the noise at frequency ``zeta``.

    Trapezoid quadrature of the characteristic-exponent integrand against
    the slope, plus exact jump terms; the integrand at the origin is
    ``-zeta**2 / 2``, which makes a jump at 0 of mass ``s`` contribute
    exactly ``-s * zeta**2 / 2``.
    """
    if profile.flag != "noise_K":
        raise ValueError("log_cf is defined for noise_K profiles only")
    z = float(zeta)
    smooth = np.trapezoid(_kernel(z * profile.grid) * profile.density, profile.grid)
    jumps = sum(mass * _kernel(np.array([z * loc]))[0] for loc, mass in profile.atoms)
    return complex(z * z * (smooth + jumps))


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
    spec = obj["grid"]
    grid = np.linspace(float(spec["min"]), float(spec["max"]), int(spec["points"]))
    atoms = tuple((float(loc), float(mass)) for loc, mass in obj.get("atoms", []))
    return MonotoneProfile(
        grid=grid,
        density=np.asarray(obj["density"], dtype=float),
        atoms=atoms,
        flag=obj.get("flag", "noise_K"),
    )
