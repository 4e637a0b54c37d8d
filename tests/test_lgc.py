import numpy as np
import pytest

from chanorder import lgc
from chanorder.lgc import (
    ExplicitMatrices,
    GaussianChannel,
    GaussianEntries,
    HaarRotated,
    SingularEnsemble,
    SingularSpectrum,
    canonicalize,
    ensemble_from_sampler,
    ensemble_glb,
    ensemble_lub,
    ensemble_order,
    glb,
    includes,
    lub,
    sample_haar_orthogonal,
    spectrum_includes,
    verify_equivalence_transform,
)
from chanorder.numerics import singular_values
from conftest import rotated_copies


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + 0.5 * np.eye(n)


class TestCanonicalize:
    def test_identity(self):
        spectrum = canonicalize(GaussianChannel(np.eye(2), np.eye(2)))
        assert np.allclose(spectrum.values, [1.0, 1.0])

    def test_noise_whitening(self):
        spectrum = canonicalize(GaussianChannel(np.eye(2), np.diag([4.0, 1.0])))
        assert np.allclose(spectrum.values, [1.0, 0.5])

    def test_antidiagonal(self):
        spectrum = canonicalize(GaussianChannel(np.array([[0.0, 3.0], [4.0, 0.0]]), np.eye(2)))
        assert np.allclose(spectrum.values, [4.0, 3.0])

    def test_requires_spd_noise(self):
        with pytest.raises(ValueError, match="positive definite"):
            GaussianChannel(np.eye(2), np.diag([1.0, 0.0]))


class TestIncludes:
    def test_dominating_pair(self):
        assert spectrum_includes(SingularSpectrum([2.0, 1.0]), SingularSpectrum([1.0, 0.5])).included

    def test_incomparable_stream_pair(self):
        a, b = SingularSpectrum([2.0, 0.5]), SingularSpectrum([1.0, 1.0])
        forward = spectrum_includes(a, b)
        backward = spectrum_includes(b, a)
        assert not forward.included and forward.violating_index == 1
        assert not backward.included and backward.violating_index == 0

    def test_self_inclusion(self):
        channel = GaussianChannel(np.array([[1.0, 0.2], [0.0, 0.7]]), np.eye(2))
        assert includes(channel, channel).included

    def test_padding_across_sizes(self):
        wide = SingularSpectrum([2.0, 1.0, 0.5])
        narrow = SingularSpectrum([1.5, 0.4])
        assert spectrum_includes(wide, narrow).included
        assert not spectrum_includes(narrow, wide).included

    def test_antisymmetric_within_tolerance(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = SingularSpectrum(np.sort(rng.random(3))[::-1])
            b = SingularSpectrum(np.sort(a.values + rng.uniform(-1e-10, 1e-10, 3))[::-1])
            if spectrum_includes(a, b).included and spectrum_includes(b, a).included:
                assert np.max(np.abs(a.values - b.values)) <= 1e-9

    def test_transitive_on_random_spectra(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = np.sort(rng.random(3))[::-1]
            b = a * rng.random(3).clip(0.2, 1.0)
            b = np.sort(b)[::-1]
            c = b * rng.random(3).clip(0.2, 1.0)
            c = np.sort(c)[::-1]
            sa, sb, sc = (SingularSpectrum(v) for v in (a, b, c))
            assert spectrum_includes(sa, sb).included
            assert spectrum_includes(sb, sc).included
            assert spectrum_includes(sa, sc).included

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
    def test_bad_tolerance_rejected(self, tolerance):
        weak = GaussianChannel(np.diag([0.5, 0.1]), np.eye(2))
        strong = GaussianChannel(np.diag([3.0, 2.0]), np.eye(2))
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            includes(weak, strong, tolerance=tolerance)
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            spectrum_includes(canonicalize(weak), canonicalize(strong), tolerance=tolerance)

    def test_zero_tolerance_compares_exactly(self):
        a = SingularSpectrum([2.0, 1.0])
        assert spectrum_includes(a, a, tolerance=0).included
        assert not spectrum_includes(a, SingularSpectrum([2.0, 1.0 + 1e-15]), tolerance=0).included


class TestLattice:
    def test_stream_example(self):
        a, b = SingularSpectrum([2.0, 0.5]), SingularSpectrum([1.0, 1.0])
        assert np.allclose(lub(a, b).values, [2.0, 1.0])
        assert np.allclose(glb(a, b).values, [1.0, 0.5])

    def test_idempotent(self):
        a = SingularSpectrum([1.5, 0.7, 0.1])
        assert np.array_equal(lub(a, a).values, a.values)
        assert np.array_equal(glb(a, a).values, a.values)

    def test_disjoint_supports(self):
        assert np.array_equal(glb(SingularSpectrum([1.0, 0.0]), SingularSpectrum([0.0, 0.0])).values, [0.0, 0.0])

    def test_axioms_on_random_spectra(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = SingularSpectrum(np.sort(rng.random(4))[::-1])
            b = SingularSpectrum(np.sort(rng.random(4))[::-1])
            assert np.array_equal(lub(a, b).values, lub(b, a).values)
            assert np.array_equal(glb(a, b).values, glb(b, a).values)
            assert np.array_equal(lub(a, glb(a, b)).values, a.values)
            assert np.array_equal(glb(a, lub(a, b)).values, a.values)
            top, bottom = lub(a, b), glb(a, b)
            for side in (a, b):
                assert spectrum_includes(top, side).included
                assert spectrum_includes(side, bottom).included
            assert np.all(np.diff(top.values) <= 0.0)
            assert np.all(np.diff(bottom.values) <= 0.0)


class TestVerifyEquivalence:
    def test_rotations(self):
        channel = GaussianChannel(np.array([[1.0, 0.3], [0.2, 0.8]]), np.eye(2))
        report = verify_equivalence_transform(channel, rotation(0.7), rotation(-1.1))
        assert report.equivalent

    def test_whitening_step(self):
        from chanorder.numerics import inverse_sqrt_spd

        rng = np.random.default_rng(2)
        sigma = random_spd(rng, 3)
        channel = GaussianChannel(rng.standard_normal((3, 3)), sigma)
        report = verify_equivalence_transform(channel, np.eye(3), inverse_sqrt_spd(sigma))
        assert report.equivalent

    def test_shrinking_b_rejected(self):
        channel = GaussianChannel(np.array([[1.0, 0.0], [0.0, 1.0]]), np.eye(2))
        report = verify_equivalence_transform(channel, np.diag([0.5, 1.0]), np.eye(2))
        assert not report.equivalent
        assert report.condition == "singular values of B not all 1"

    def test_tall_b_rejected(self):
        channel = GaussianChannel(np.ones((2, 3)) / 3.0, np.eye(2))
        report = verify_equivalence_transform(channel, np.ones((3, 2)), np.eye(2))
        assert not report.equivalent
        assert report.condition == "B is not right-invertible"

    def test_singular_c_rejected(self):
        channel = GaussianChannel(np.eye(2), np.eye(2))
        report = verify_equivalence_transform(channel, np.eye(2), np.zeros((2, 2)))
        assert not report.equivalent
        assert report.condition == "C is not left-invertible"

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
    def test_bad_tolerance_rejected(self, tolerance):
        channel = GaussianChannel(np.diag([2.0, 0.5]), np.eye(2))
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            verify_equivalence_transform(channel, 0.5 * np.eye(2), np.eye(2), tolerance=tolerance)

    def test_dimension_mismatch_raises(self):
        channel = GaussianChannel(np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="dimension"):
            verify_equivalence_transform(channel, np.eye(3), np.eye(2))
        with pytest.raises(ValueError, match="dimension"):
            verify_equivalence_transform(channel, np.eye(2), np.eye(3))

    def test_random_admissible_transforms_preserve_spectrum(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            outputs = int(rng.integers(1, 5))
            inputs = int(rng.integers(1, 5))
            channel = GaussianChannel(rng.standard_normal((outputs, inputs)), random_spd(rng, outputs))
            extra = int(rng.integers(0, 3))
            b = sample_haar_orthogonal(inputs + extra, [3, trial, 0])[:inputs, :]
            c = sample_haar_orthogonal(outputs, [3, trial, 1]) * (0.5 + rng.random())
            report = verify_equivalence_transform(channel, b, c, tolerance=1e-8)
            assert report.equivalent, report.condition


class TestHaar:
    def test_orthogonality(self):
        for n in (1, 2, 5, 16):
            q = sample_haar_orthogonal(n, 7)
            assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-10

    def test_reproducible(self):
        assert np.array_equal(sample_haar_orthogonal(4, 5), sample_haar_orthogonal(4, 5))

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "2"], ids=["float", "whole-float", "bool", "string"])
    def test_non_integer_size_rejected(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            sample_haar_orthogonal(n, 1)

    def test_numpy_integer_size_accepted(self):
        assert np.array_equal(sample_haar_orthogonal(np.int64(3), 5), sample_haar_orthogonal(3, 5))

    def test_column_norms(self):
        q = sample_haar_orthogonal(6, 11)
        assert np.max(np.abs(np.linalg.norm(q, axis=0) - 1.0)) <= 1e-10

    def test_factor_of_the_seeded_gaussian(self):
        # Q^T G must be the QR factor R with its diagonal made positive.
        for n in (1, 2, 5, 9):
            for seed in (0, 3, [4, 1]):
                gauss = np.random.default_rng(seed).standard_normal((n, n))
                r = sample_haar_orthogonal(n, seed).T @ gauss
                assert np.all(np.diag(r) > 0.0)
                assert np.max(np.abs(np.tril(r, -1))) <= 1e-10

    def test_scalar_sign_balance(self):
        signs = np.array([sample_haar_orthogonal(1, seed)[0, 0] for seed in range(10_000)])
        assert set(np.unique(np.abs(signs))) == {1.0}
        # 3 sigma of a fair coin over 10^4 draws.
        assert abs((signs > 0).mean() - 0.5) <= 3.0 * 0.005

    def test_rotation_invariance_of_spectra(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 4))
        base = np.linalg.svd(a, compute_uv=False)
        for seed in range(5):
            q = sample_haar_orthogonal(4, seed)
            rotated = np.linalg.svd(q @ a, compute_uv=False)
            assert np.max(np.abs(rotated - base)) <= 1e-10


def _reference_spectra(sampler, n_samples, seed):
    # The sampling contract, computed from numpy alone.
    if isinstance(sampler, GaussianEntries):
        shape = (n_samples, sampler.rows, sampler.cols)
        draws = sampler.scale * np.random.default_rng(seed).standard_normal(shape)
        return np.linalg.svd(draws, compute_uv=False)
    if isinstance(sampler, HaarRotated):
        return np.tile(singular_values(sampler.base), (n_samples, 1))
    return np.linalg.svd(np.stack(sampler.matrices[:n_samples]), compute_uv=False)


class TestEnsembles:
    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (3, 5), (6, 4), (8, 8)])
    @pytest.mark.parametrize("n_samples", [1, 300])
    def test_samples_match_per_sample_reference(self, shape, n_samples):
        rng = np.random.default_rng([20, *shape, n_samples])
        base = rng.standard_normal(shape)
        samplers = [
            GaussianEntries(*shape, scale=1.5),
            HaarRotated(base),
            ExplicitMatrices(tuple(rng.standard_normal((n_samples + 1, *shape)))),
        ]
        for sampler in samplers:
            for seed in (0, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 5, 2**96 + 1):
                got = ensemble_from_sampler(sampler, n_samples, seed).samples
                want = _reference_spectra(sampler, n_samples, seed)
                assert got.tobytes() == want.tobytes(), (type(sampler).__name__, seed)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (8, 8)])
    def test_longer_gaussian_ensemble_extends_shorter(self, shape):
        for seed in (0, 7, 2**40 + 3):
            short = ensemble_from_sampler(GaussianEntries(*shape), 1, seed).samples
            long = ensemble_from_sampler(GaussianEntries(*shape), 300, seed).samples
            assert long[:1].tobytes() == short.tobytes(), seed

    @pytest.mark.parametrize("sampler", [GaussianEntries(2, 2)], ids=["gaussian"])
    def test_negative_seed_rejected(self, sampler):
        with pytest.raises(ValueError, match="non-negative"):
            ensemble_from_sampler(sampler, 3, seed=-1)

    @pytest.mark.parametrize("sampler", [HaarRotated(np.eye(2))], ids=["haar"])
    def test_seed_recorded_but_unread_where_nothing_is_drawn(self, sampler):
        ensemble = ensemble_from_sampler(sampler, 3, seed=-1)
        assert ensemble.seed == -1
        assert ensemble.samples.tobytes() == ensemble_from_sampler(sampler, 3, seed=5).samples.tobytes()

    @pytest.mark.parametrize("rows, cols", [(2.5, 2), (2, 2.0), (0, 2), (2, -1), ("2", 2), (True, 2)])
    def test_gaussian_entries_rejects_bad_dimensions(self, rows, cols):
        with pytest.raises(ValueError, match="positive integers"):
            GaussianEntries(rows, cols)

    def test_gaussian_entries_stores_int_dimensions(self):
        sampler = GaussianEntries(np.int64(3), 2)
        assert type(sampler.rows) is int and sampler.rows == 3

    @pytest.mark.parametrize("base", [np.zeros((0, 3)), np.zeros((2, 0)), np.zeros((0, 0))])
    def test_haar_rotated_rejects_empty_base(self, base):
        with pytest.raises(ValueError, match="nonempty"):
            HaarRotated(base)

    @pytest.mark.parametrize("matrix", [np.zeros((0, 3)), np.zeros((2, 0)), np.zeros((0, 0))])
    @pytest.mark.parametrize(
        "build", [HaarRotated, lambda m: ExplicitMatrices((np.eye(2), m))], ids=["fixed", "explicit"]
    )
    def test_matrix_samplers_reject_empty_matrix(self, build, matrix):
        with pytest.raises(ValueError, match="nonempty finite"):
            build(matrix)

    def test_fixed_matrix_sampler(self):
        matrix = np.diag([2.0, 0.5])
        ensemble = ensemble_from_sampler(HaarRotated(matrix), 10, seed=0)
        assert np.allclose(ensemble.samples, np.tile([2.0, 0.5], (10, 1)))

    def test_haar_rotated_keeps_spectrum(self):
        base = np.diag([2.0, 0.5])
        ensemble = ensemble_from_sampler(HaarRotated(base), 25, seed=1)
        assert np.max(np.abs(ensemble.samples - np.array([2.0, 0.5]))) <= 1e-10

    def test_explicit_matrices(self):
        mats = [np.eye(2), np.diag([3.0, 1.0])]
        ensemble = ensemble_from_sampler(ExplicitMatrices(tuple(mats)), 2, seed=0)
        assert np.allclose(ensemble.samples[1], [3.0, 1.0])
        with pytest.raises(ValueError, match="not enough"):
            ensemble_from_sampler(ExplicitMatrices(tuple(mats)), 3, seed=0)

    def test_scaled_gaussian_means_ordered(self):
        small = ensemble_from_sampler(GaussianEntries(2, 2, scale=1.0), 2000, seed=5)
        large = ensemble_from_sampler(GaussianEntries(2, 2, scale=2.0), 2000, seed=6)
        assert np.all(large.samples.mean(axis=0) > small.samples.mean(axis=0))

    def test_reproducible(self):
        a = ensemble_from_sampler(GaussianEntries(2, 3), 50, seed=9)
        b = ensemble_from_sampler(GaussianEntries(2, 3), 50, seed=9)
        assert np.array_equal(a.samples, b.samples)

    def test_json_round_trip(self):
        ensemble = ensemble_from_sampler(GaussianEntries(2, 2), 5, seed=3)
        again = lgc.ensemble_from_json_dict(lgc.ensemble_to_json_dict(ensemble))
        assert np.array_equal(again.samples, ensemble.samples)
        assert again.seed == ensemble.seed

    @pytest.mark.parametrize("seed", [7.9, 7.0, True, "7"], ids=["fraction", "float", "bool", "string"])
    def test_non_integer_seed_rejected(self, seed):
        doc = {"type": "lgc_ensemble", "samples": [[2.0, 1.0]], "seed": seed}
        for build in (
            lambda: lgc.ensemble_from_json_dict(doc),
            lambda: SingularEnsemble(np.array([[2.0, 1.0]]), seed=seed),
            lambda: ensemble_from_sampler(HaarRotated(np.eye(2)), 1, seed),
        ):
            with pytest.raises(ValueError, match="seed must be an integer"):
                build()

    @pytest.mark.parametrize("n_samples", [3.5, 3.0, True], ids=["fraction", "float", "bool"])
    def test_non_integer_sample_count_rejected(self, n_samples):
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            ensemble_from_sampler(GaussianEntries(2, 2), n_samples, 1)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint8(7)], ids=["int64", "uint8"])
    def test_numpy_integer_seed_accepted(self, seed):
        loaded = lgc.ensemble_from_json_dict({"type": "lgc_ensemble", "samples": [[2.0, 1.0]], "seed": seed})
        drawn = ensemble_from_sampler(GaussianEntries(2, 2), 3, seed)
        assert all(type(e.seed) is int and e.seed == 7 for e in (loaded, drawn))
        reference = ensemble_from_sampler(GaussianEntries(2, 2), 3, 7)
        assert drawn.samples.tobytes() == reference.samples.tobytes()

    @pytest.mark.parametrize(
        "parse, doc, what",
        [
            (lgc.from_json_dict, {"type": "lgc", "H": [["1.0", "0.0"], ["0.0", "1.0"]],
                                  "Sigma": [[1.0, 0.0], [0.0, 1.0]]}, "H"),
            (lgc.from_json_dict, {"type": "lgc", "H": [[1.0, 0.0], [0.0, 1.0]],
                                  "Sigma": [[True, False], [False, True]]}, "Sigma"),
            (lgc.ensemble_from_json_dict, {"type": "lgc_ensemble", "samples": [["2.0", "1.0"]]},
             "samples"),
        ],
        ids=["string-H", "bool-Sigma", "string-samples"],
    )
    def test_non_number_document_arrays_rejected(self, parse, doc, what):
        with pytest.raises(TypeError, match=f"{what} must hold only numbers"):
            parse(doc)


class TestEnsembleOrder:
    def test_self_comparison_equal(self):
        ensemble = ensemble_from_sampler(GaussianEntries(2, 2), 500, seed=0)
        decision = ensemble_order(ensemble, ensemble)
        assert decision.ordered
        assert decision.direction == "equal"
        assert decision.max_margin == 0.0

    def test_paired_scaling_dominates(self):
        base = ensemble_from_sampler(GaussianEntries(2, 2, scale=1.0), 2000, seed=7)
        double = ensemble_from_sampler(GaussianEntries(2, 2, scale=2.0), 2000, seed=7)
        decision = ensemble_order(double, base)
        assert decision.ordered
        assert decision.direction == "first"
        assert decision.max_violation == 0.0

    def test_incomparable_designs(self):
        a = ensemble_from_sampler(HaarRotated(np.diag([2.0, 0.5])), 400, seed=8)
        b = ensemble_from_sampler(HaarRotated(np.diag([1.0, 1.0])), 400, seed=9)
        decision = ensemble_order(a, b)
        assert not decision.ordered
        assert decision.max_violation > decision.band

    def test_rotated_and_fixed_matrix_are_equal(self):
        # One base matrix at two seeds: the same law, the fixed matrix's
        # spectrum, so no rounding-level difference may order them.
        base = np.random.default_rng(3).standard_normal((3, 4))
        rotated = ensemble_from_sampler(HaarRotated(base), 500, seed=0)
        fixed = ensemble_from_sampler(HaarRotated(base), 500, seed=1)
        decision = ensemble_order(rotated, fixed)
        assert decision.ordered
        assert decision.direction == "equal"
        assert decision.max_violation == 0.0

    def test_rotated_copies_equal_within_rounding(self):
        # The copies' spectra differ from the fixed one by up to 2.7e-15,
        # rounding, which alone would put max_violation at 0.44 against a
        # band of 0.19.
        base = np.random.default_rng(3).standard_normal((3, 3))
        copies = ensemble_from_sampler(rotated_copies(base, 200), 200, seed=0)
        fixed = ensemble_from_sampler(HaarRotated(base), 200, seed=0)
        assert 0.0 < np.max(np.abs(copies.samples - fixed.samples)) < 1e-14
        for first, second in ((copies, fixed), (fixed, copies)):
            decision = ensemble_order(first, second)
            assert (decision.ordered, decision.direction) == (True, "equal")
            assert decision.max_violation == decision.max_margin == 0.0

    def test_quantile_lattice_bounds(self):
        rng = np.random.default_rng(10)
        a = ensemble_from_sampler(GaussianEntries(2, 2, scale=1.0), 500, seed=11)
        b = ensemble_from_sampler(GaussianEntries(2, 2, scale=1.3), 500, seed=12)
        top = ensemble_lub(a, b)
        bottom = ensemble_glb(a, b)
        for side in (a, b):
            assert ensemble_order(top, side).ordered
            assert ensemble_order(side, bottom).ordered

    @pytest.mark.parametrize("delta", [0.0, -0.1, 1.0, 2.0, 3.0, float("nan")])
    def test_bad_delta_rejected(self, delta):
        ensemble = ensemble_from_sampler(GaussianEntries(2, 2), 10, seed=0)
        with pytest.raises(ValueError, match="delta"):
            ensemble_order(ensemble, ensemble, delta=delta)

    def test_length_mismatch_rejected(self):
        a = ensemble_from_sampler(GaussianEntries(2, 2), 10, seed=0)
        b = ensemble_from_sampler(GaussianEntries(3, 3), 10, seed=0)
        with pytest.raises(ValueError, match="length"):
            ensemble_order(a, b)

    def test_violation_between_grid_points_found(self):
        # The CDFs agree at every point of linspace(0, 100, 101) but differ
        # by 999/2000 on [0.3, 0.6); only an exact comparison sees it.
        low = SingularEnsemble(np.array([0.0] + [0.3] * 999 + [100.0] * 1000)[:, None], seed=0)
        high = SingularEnsemble(np.array([0.0] + [0.6] * 999 + [100.0] * 1000)[:, None], seed=0)
        decision = ensemble_order(low, high)
        assert decision.ordered
        assert decision.direction == "second"
        assert decision.max_margin == pytest.approx(0.4995, abs=1e-12)
        assert decision.max_violation == 0.0

    def test_grid_size_keyword_removed(self):
        ensemble = ensemble_from_sampler(GaussianEntries(2, 2), 10, seed=0)
        with pytest.raises(TypeError):
            ensemble_order(ensemble, ensemble, n_grid=101)


def _brute_force_order(a, b, delta=0.05):
    """ensemble_order with both CDFs evaluated by broadcasting at every pooled point."""
    band = np.sqrt(np.log(2 / delta) / (2 * a.n_samples)) + np.sqrt(
        np.log(2 / delta) / (2 * b.n_samples)
    )
    first = second = gap = 0.0
    for k in range(a.spectrum_length):
        points = np.concatenate([a.samples[:, k], b.samples[:, k]])
        fa = (a.samples[:, k][:, None] <= points).mean(0)
        fb = (b.samples[:, k][:, None] <= points).mean(0)
        first = max(first, float(np.max(fa - fb)))
        second = max(second, float(np.max(fb - fa)))
        gap = max(gap, float(np.max(np.abs(fa - fb))))
    if first <= band and second <= band:
        return "equal", gap, max(first, second)
    if first <= band:
        return "first", second, first
    if second <= band:
        return "second", first, second
    return None, gap, min(first, second)


def _rounded(ensemble, decimals):
    return SingularEnsemble(np.round(ensemble.samples, decimals), seed=ensemble.seed)


_ORACLE_PAIRS = {
    "gaussian-unequal-counts":
        lambda: (ensemble_from_sampler(GaussianEntries(2, 2, scale=1.2), 300, seed=21),
                 ensemble_from_sampler(GaussianEntries(2, 2), 450, seed=22)),
    "haar-vs-gaussian":
        lambda: (ensemble_from_sampler(HaarRotated(np.diag([2.0, 0.5])), 250, seed=23),
                 ensemble_from_sampler(GaussianEntries(2, 2), 400, seed=24)),
    # Rounding ties samples within and across the two ensembles.
    "rounded-one-decimal":
        lambda: (_rounded(ensemble_from_sampler(GaussianEntries(3, 3), 200, seed=25), 1),
                 _rounded(ensemble_from_sampler(GaussianEntries(3, 3, scale=1.1), 350, seed=26), 1)),
    "rounded-integer":
        lambda: (_rounded(ensemble_from_sampler(GaussianEntries(2, 2), 500, seed=27), 0),
                 _rounded(ensemble_from_sampler(GaussianEntries(2, 2), 120, seed=28), 0)),
    # Repeated user-supplied matrices: heavy ties, tiny unequal counts.
    "explicit-repeats":
        lambda: (ensemble_from_sampler(
                     ExplicitMatrices([np.diag([2.0, 1.0])] * 3 + [np.eye(2)] * 4), 7, seed=0),
                 ensemble_from_sampler(
                     ExplicitMatrices([np.eye(2)] * 2 + [np.diag([3.0, 0.5])] * 3), 5, seed=0)),
}


@pytest.mark.parametrize("make_pair", _ORACLE_PAIRS.values(), ids=_ORACLE_PAIRS.keys())
def test_ensemble_order_matches_brute_force_cdfs(make_pair):
    a, b = make_pair()
    for first, second in ((a, b), (b, a)):
        decision = ensemble_order(first, second)
        direction, margin, violation = _brute_force_order(first, second)
        assert decision.direction == direction
        assert decision.ordered == (direction is not None)
        assert decision.max_margin == pytest.approx(margin, abs=1e-12)
        assert decision.max_violation == pytest.approx(violation, abs=1e-12)
