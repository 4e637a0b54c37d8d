import cmath
import re
import warnings

import numpy as np
import pytest

from chanorder import noise
from chanorder.noise import (
    MonotoneProfile,
    Relation,
    check_order,
    gaussian,
    glb,
    log_cf,
    lub,
    profile_sum,
    variance,
)
from conftest import random_profile


def atom(location, mass):
    return MonotoneProfile(atoms=[(location, mass)])


def profiles_equal(a, b, tolerance=1e-9):
    return check_order(a, b, tolerance).relation is Relation.EQUAL


class TestCheckOrder:
    def test_gaussian_variance_comparison(self):
        assert check_order(gaussian(1.0), gaussian(2.0)).relation is Relation.SECOND_WORSE
        assert check_order(gaussian(2.0), gaussian(1.0)).relation is Relation.FIRST_WORSE

    def test_distinct_atoms_incomparable(self):
        result = check_order(atom(0.0, 1.0), atom(1.0, 2.0))
        assert result.relation is Relation.INCOMPARABLE
        assert result.max_violation > 1e-9

    def test_reflexive_equal(self):
        p = random_profile(np.random.default_rng(1))
        result = check_order(p, p)
        assert result.relation is Relation.EQUAL
        assert result.max_violation == 0.0

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
    def test_bad_tolerance_rejected(self, tolerance):
        p = random_profile(np.random.default_rng(1))
        for a, b in [(p, p), (atom(0.0, 1.0), atom(1.0, 2.0))]:
            with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
                check_order(a, b, tolerance=tolerance)

    def test_zero_tolerance_allowed(self):
        p = random_profile(np.random.default_rng(1))
        assert check_order(p, p, tolerance=0).relation is Relation.EQUAL
        assert check_order(gaussian(1.0), gaussian(2.0), tolerance=0).relation is Relation.SECOND_WORSE

    def test_flag_mismatch_rejected(self):
        spectral = MonotoneProfile(flag="spectral")
        with pytest.raises(ValueError, match="flag"):
            check_order(gaussian(1.0), spectral)

    def test_spectral_profiles_compare_identically(self):
        grid = np.linspace(-5.0, 5.0, 65)
        low = MonotoneProfile(grid, np.full(65, 0.5), flag="spectral")
        high = MonotoneProfile(grid, np.ones(65), flag="spectral")
        assert check_order(low, high).relation is Relation.SECOND_WORSE

    def test_chained_atoms_incomparable(self):
        # variance 4 against 5: a's atom pairs with b's first atom only.
        b = MonotoneProfile(atoms=[(-6e-10, 2.0), (6e-10, 3.0)])
        assert check_order(atom(0.0, 4.0), b) == noise.OrderResult(Relation.INCOMPARABLE, 2.0)

    def test_different_grids(self):
        a = MonotoneProfile(np.linspace(-2.0, 2.0, 101), np.full(101, 0.5))
        b = MonotoneProfile(np.linspace(-3.0, 3.0, 61), np.ones(61))
        # b's density dominates a's everywhere both are defined, and a's
        # density vanishes outside its span.
        assert check_order(a, b).relation is Relation.SECOND_WORSE


class TestLattice:
    def test_same_location_atoms(self):
        assert lub(atom(0.0, 1.0), atom(0.0, 2.0)).atoms == ((0.0, 2.0),)
        assert glb(atom(0.0, 1.0), atom(0.0, 2.0)).atoms == ((0.0, 1.0),)

    def test_distinct_location_atoms(self):
        assert lub(atom(0.0, 1.0), atom(1.0, 2.0)).atoms == ((0.0, 1.0), (1.0, 2.0))
        joined = glb(atom(0.0, 1.0), atom(1.0, 2.0))
        assert joined.atoms == ()
        assert variance(joined) == 0.0

    def test_chained_atoms_pair_one_to_one_at_the_smaller_location(self):
        # 0 lies within the matching tolerance of both of b's atoms, which
        # lie more than the tolerance apart from each other.
        a, b = atom(0.0, 1.0), MonotoneProfile(atoms=[(-6e-10, 2.0), (6e-10, 3.0)])
        for x, y in ((a, b), (b, a)):
            assert lub(x, y).atoms == ((-6e-10, 2.0), (6e-10, 3.0))
            assert glb(x, y).atoms == ((-6e-10, 1.0),)
            assert profile_sum(x, y).atoms == ((-6e-10, 3.0), (6e-10, 3.0))

    def test_idempotence(self):
        p = random_profile(np.random.default_rng(2))
        assert profiles_equal(lub(p, p), p)
        assert profiles_equal(glb(p, p), p)

    def test_axioms_on_random_profiles(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a, b = random_profile(rng), random_profile(rng)
            assert profiles_equal(lub(a, b), lub(b, a))
            assert profiles_equal(glb(a, b), glb(b, a))
            assert profiles_equal(lub(a, glb(a, b)), a)
            assert profiles_equal(glb(a, lub(a, b)), a)
            top, bottom = lub(a, b), glb(a, b)
            for side in (a, b):
                assert check_order(side, top).relation in (Relation.SECOND_WORSE, Relation.EQUAL)
                assert check_order(bottom, side).relation in (Relation.SECOND_WORSE, Relation.EQUAL)

    def test_strict_order_strictly_increases_variance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = random_profile(rng)
            extra = random_profile(rng)
            if variance(extra) == 0.0:
                continue
            b = profile_sum(a, extra)
            result = check_order(a, b)
            assert result.relation is Relation.SECOND_WORSE
            assert variance(b) > variance(a)

    def test_gaussian_total_order(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s1, s2 = rng.random() * 3, rng.random() * 3
            relation = check_order(gaussian(s1), gaussian(s2)).relation
            assert relation is not Relation.INCOMPARABLE


class TestSharedGrid:
    # Two profiles on one grid are paired on it directly; the union grid and
    # the interpolation run only for grids that differ.
    @staticmethod
    def union_aligned(aligned):
        def aligned_on_the_union(a, b):
            _, _, _, locations, ma, mb = aligned(a, b)
            grid = np.union1d(a.grid, b.grid)
            da = np.interp(grid, a.grid, a.density, left=0.0, right=0.0)
            db = np.interp(grid, b.grid, b.density, left=0.0, right=0.0)
            return grid, da, db, locations, ma, mb

        return aligned_on_the_union

    @staticmethod
    def outputs(a, b):
        result = check_order(a, b)
        text = [result.relation.value, np.float64(result.max_violation).tobytes()]
        for combined in (lub(a, b), glb(a, b), profile_sum(a, b)):
            text += [combined.grid.tobytes(), combined.density.tobytes(), repr(combined.atoms)]
        return text

    def test_equal_grids_match_the_union_path_byte_for_byte(self, monkeypatch):
        rng = np.random.default_rng(123)
        pairs = []
        for i in range(40):
            flag = "spectral" if i % 4 == 0 else "noise_K"
            a = random_profile(rng, flag=flag, grid_points=int(rng.integers(2, 300)))
            b = random_profile(rng, flag=flag, grid_points=a.grid.size)
            if i % 3 == 0:
                b = profile_sum(a, b)
            pairs.append((a, b))
        pairs.append((MonotoneProfile(), gaussian(2.0)))
        fast = [self.outputs(a, b) for a, b in pairs]
        monkeypatch.setattr(noise, "_aligned", self.union_aligned(noise._aligned))
        assert [self.outputs(a, b) for a, b in pairs] == fast

    def test_union_grid_only_for_grids_that_differ(self, monkeypatch):
        calls = []
        union1d = np.union1d
        monkeypatch.setattr(np, "union1d", lambda x, y: calls.append(1) or union1d(x, y))
        rng = np.random.default_rng(7)
        same = random_profile(rng), random_profile(rng)
        other = MonotoneProfile(np.linspace(-3.0, 3.0, 61), np.ones(61))
        zeros = tuple(MonotoneProfile(np.array([zero, 0.5, 1.0])) for zero in (-0.0, 0.0))
        for a, b, expected in ((*same, 0), (same[0], other, 1), (*zeros, 1)):
            for operation in (check_order, lub, glb, profile_sum):
                calls.clear()
                operation(a, b)
                assert len(calls) == expected, (operation.__name__, expected)
        # Grids equal but for the sign of a zero: the union's zero is kept.
        assert lub(*zeros).grid.tobytes() == np.union1d(zeros[0].grid, zeros[1].grid).tobytes()


class TestVariance:
    def test_atom_mass(self):
        assert variance(atom(0.0, 2.5)) == 2.5

    def test_empty(self):
        assert variance(MonotoneProfile()) == 0.0

    def test_unit_density_block(self):
        grid = np.linspace(0.0, 1.0, 513)
        assert variance(MonotoneProfile(grid, np.ones(513))) == pytest.approx(1.0, abs=1e-12)


class TestLogCf:
    def test_gaussian_exact(self):
        for sigma2 in (0.5, 1.0, 3.0):
            for zeta in (-2.0, 0.3, 1.7):
                value = log_cf(gaussian(sigma2), zeta)
                expected = -sigma2 * zeta**2 / 2.0
                assert value.imag == 0.0
                assert value.real == pytest.approx(expected, rel=1e-12)

    def test_empty_profile(self):
        assert log_cf(MonotoneProfile(), 1.3) == 0.0

    def test_unit_atom_off_origin(self):
        # Direct evaluation of the integrand at u = 1.
        expected = cmath.exp(1j) - 1.0 - 1j
        assert log_cf(atom(1.0, 1.0), 1.0) == pytest.approx(expected, abs=1e-12)

    def test_additivity_under_independent_sum(self):
        rng = np.random.default_rng(6)
        a, b = random_profile(rng), random_profile(rng)
        merged = profile_sum(a, b)
        for zeta in (-2.0, 0.7, 1.9):
            combined = log_cf(a, zeta) + log_cf(b, zeta)
            assert log_cf(merged, zeta) == pytest.approx(combined, abs=1e-9)

    @pytest.mark.parametrize("zeta", [np.nan, np.inf, -np.inf])
    def test_non_finite_zeta_rejected(self, zeta):
        with pytest.raises(ValueError, match="zeta must be finite"):
            log_cf(gaussian(1.0), zeta)

    @pytest.mark.parametrize("zeta", [1e154, 1e155, 1e300, -1e300, 1.7e308])
    def test_zero_profile_is_zero_at_any_finite_zeta(self, zeta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_cf(gaussian(0.0), zeta) == 0.0

    def test_large_zeta_in_range(self):
        # zeta**2 overflows at 1.5e154, but -zeta**2 / 2 does not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = log_cf(gaussian(1.0), 1.5e154)
            assert value.imag == 0.0
            assert value.real == pytest.approx(-1.125e308, rel=1e-12)
            # Off the origin the integrand is (exp(j zeta) - 1 - j zeta) at u = 1.
            value = log_cf(atom(1.0, 1.0), 1e200)
            assert value.imag == pytest.approx(-1e200, rel=1e-12)
            assert -2.0 <= value.real <= 0.0

    @pytest.mark.parametrize(
        "profile, zeta",
        [(gaussian(1.0), 1e155), (gaussian(1.0), -1e200), (atom(10.0, 1.0), 1e308)],
        ids=["value-overflows", "value-overflows-negative", "zeta-times-support-overflows"],
    )
    def test_out_of_range_rejected(self, profile, zeta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"zeta={zeta!r}")):
                log_cf(profile, zeta)

    def test_spectral_profile_rejected(self):
        with pytest.raises(ValueError, match="noise_K"):
            log_cf(MonotoneProfile(flag="spectral"), 1.0)


class TestValidationAndJson:
    def test_density_floor(self):
        grid = np.linspace(-1.0, 1.0, 11)
        with pytest.raises(ValueError, match="nonnegative"):
            MonotoneProfile(grid, np.full(11, -1e-3))

    def test_atom_mass_positive(self):
        with pytest.raises(ValueError, match="positive"):
            MonotoneProfile(atoms=[(0.0, 0.0)])

    def test_atoms_too_close(self):
        with pytest.raises(ValueError, match="separated"):
            MonotoneProfile(atoms=[(0.0, 1.0), (1e-12, 1.0)])

    def test_grid_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            MonotoneProfile(np.array([0.0, 0.0, 1.0]), np.zeros(3))

    def test_json_round_trip(self):
        p = random_profile(np.random.default_rng(7))
        again = noise.from_json_dict(noise.to_json_dict(p))
        assert profiles_equal(p, again)
        assert again.flag == p.flag

    @pytest.mark.parametrize("points", [10**12, 2.7, 3, True], ids=["huge", "float", "mismatch", "bool"])
    def test_grid_points_must_count_the_density(self, points):
        doc = {"type": "kfunction", "grid": {"min": -1.0, "max": 1.0, "points": points},
               "density": [0.0, 0.0]}
        with pytest.raises(ValueError, match="grid.points"):
            noise.from_json_dict(doc)

    @pytest.mark.parametrize(
        "low, high", [("-1", 1.0), (-1.0, "1"), (False, 1.0), (None, 1.0)],
        ids=["string-min", "string-max", "bool-min", "null-min"],
    )
    def test_non_number_grid_bounds_rejected(self, low, high):
        doc = {"type": "kfunction", "grid": {"min": low, "max": high, "points": 2},
               "density": [0.0, 0.0]}
        with pytest.raises(ValueError, match="grid.min and grid.max must be numbers"):
            noise.from_json_dict(doc)

    @pytest.mark.parametrize(
        "density, atoms, what",
        [(["0.5", "0.5"], [], "density"), ([True, False], [], "density"),
         ([0.5, 0.5], [["0.0", "1.0"]], "atoms")],
        ids=["string-density", "bool-density", "string-atoms"],
    )
    def test_non_number_document_arrays_rejected(self, density, atoms, what):
        doc = {"type": "kfunction", "grid": {"min": -1.0, "max": 1.0, "points": 2},
               "density": density, "atoms": atoms}
        with pytest.raises(TypeError, match=f"{what} must hold only numbers"):
            noise.from_json_dict(doc)

    def test_nonuniform_grid_not_serializable(self):
        grid = np.array([0.0, 0.1, 0.5, 2.0])
        with pytest.raises(ValueError, match="uniform"):
            noise.to_json_dict(MonotoneProfile(grid, np.zeros(4)))
