import json
import warnings

import numpy as np
import pytest

from chanorder import phase
from chanorder.phase import (
    PointPhase,
    Strictness,
    TorusSpectrum,
    UniformPhase,
    WrappedCauchy,
    WrappedGaussian,
    degradation_coeffs,
    degrade,
    from_grid,
    from_wrapped,
    input_uniformizing_degradation,
    is_strict,
    joint_from_marginals,
    output_uniformizing_degradation,
    product_channel,
    worst_channel,
    wrapped_glb,
    wrapped_lub,
)


def coefficient_index(order, m, n):
    return m + order, n + order


def smooth_pdf(rng, points):
    theta = 2.0 * np.pi * np.arange(points) / points
    a, b, c = rng.random(3) * 1.5
    c1, c2, c3 = rng.random(3) * 2.0 * np.pi
    t1, t2 = np.meshgrid(theta, theta, indexing="ij")
    return np.exp(a * np.cos(t1 - c1) + b * np.cos(t2 - c2) + c * np.cos(t1 + t2 - c3))


def circular_convolve(w1, w2):
    return np.real(np.fft.ifft2(np.fft.fft2(w1) * np.fft.fft2(w2)))


class TestFromWrapped:
    def test_uniform_is_delta(self):
        seq = from_wrapped(UniformPhase(), 5)
        expected = np.zeros(11)
        expected[5] = 1.0
        assert np.array_equal(seq, expected.astype(complex))

    def test_point_at_zero_all_ones(self):
        assert np.allclose(from_wrapped(PointPhase(0.0), 4), np.ones(9))

    def test_wrapped_gaussian_value(self):
        seq = from_wrapped(WrappedGaussian(0.0, 2.0), 3)
        assert seq[4] == pytest.approx(np.exp(-1.0))

    def test_wrapped_gaussian_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        draws = rng.normal(0.0, np.sqrt(2.0), size=100_000)
        seq = from_wrapped(WrappedGaussian(0.0, 2.0), 3)
        for m in range(-3, 4):
            empirical = np.exp(1j * m * draws).mean()
            assert abs(empirical - seq[m + 3]) <= 0.01

    def test_wrapped_cauchy_decay(self):
        seq = from_wrapped(WrappedCauchy(0.0, 1.0), 3)
        assert seq[4] == pytest.approx(np.exp(-1.0))
        assert seq[6] == pytest.approx(np.exp(-3.0))

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            from_wrapped(WrappedGaussian(0.0, -1.0), 3)
        with pytest.raises(ValueError):
            from_wrapped(WrappedCauchy(0.0, -0.5), 3)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "family, name",
        [
            (lambda x: WrappedGaussian(x, 1.0), "mean"),
            (lambda x: WrappedGaussian(0.0, x), "sigma2"),
            (lambda x: WrappedCauchy(x, 1.0), "mean"),
            (lambda x: WrappedCauchy(0.0, x), "gamma"),
            (PointPhase, "angle"),
        ],
        ids=["wgauss-mean", "wgauss-sigma2", "wcauchy-mean", "wcauchy-gamma", "point-angle"],
    )
    def test_non_finite_parameter_rejected(self, family, name, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
                from_wrapped(family(value), 2)

    def test_scale_past_the_float_range_is_the_uniform_limit(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for family in (WrappedGaussian(0.5, 1e308), WrappedCauchy(0.5, 1e308)):
                assert np.array_equal(from_wrapped(family, 3), from_wrapped(UniformPhase(), 3))

    def test_angle_multiple_past_the_float_range_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from_wrapped(PointPhase(1e308), 1)
            with pytest.raises(ValueError, match="angle times the order 2 is not finite"):
                from_wrapped(PointPhase(1e308), 2)


class TestProductChannel:
    def test_double_uniform_is_worst(self):
        built = product_channel(from_wrapped(UniformPhase(), 6), from_wrapped(UniformPhase(), 6))
        assert np.array_equal(built.coeffs, worst_channel(6).coeffs)

    def test_double_point_all_ones(self):
        built = product_channel(from_wrapped(PointPhase(0.0), 4), from_wrapped(PointPhase(0.0), 4))
        assert np.allclose(built.coeffs, np.ones((9, 9)))

    def test_cauchy_times_uniform(self):
        order = 5
        built = product_channel(
            from_wrapped(WrappedCauchy(0.0, 1.0), order), from_wrapped(UniformPhase(), order)
        )
        m = np.arange(-order, order + 1)
        expected = np.zeros((11, 11), dtype=complex)
        expected[:, order] = np.exp(-np.abs(m))
        assert np.allclose(built.coeffs, expected)


class TestFromGrid:
    def test_uniform_grid_is_worst(self):
        built = from_grid(np.ones((32, 32)), 4)
        assert np.allclose(built.coeffs, worst_channel(4).coeffs, atol=1e-12)

    def test_point_mass(self):
        pdf = np.zeros((32, 32))
        pdf[0, 0] = 1.0
        built = from_grid(pdf, 4)
        assert np.allclose(built.coeffs, np.ones((9, 9)))

    def test_product_density_factorizes(self):
        rng = np.random.default_rng(1)
        row = rng.random(48) + 0.05
        col = rng.random(48) + 0.05
        joint_spectrum = from_grid(np.outer(row, col), 6)
        theta = 2.0 * np.pi * np.arange(48) / 48
        m = np.arange(-6, 7)
        h = (np.exp(1j * np.outer(m, theta)) @ (row / row.sum())).ravel()
        v = (np.exp(1j * np.outer(m, theta)) @ (col / col.sum())).ravel()
        assert np.max(np.abs(joint_spectrum.coeffs - product_channel(h, v).coeffs)) <= 1e-8

    def test_zero_grid_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            from_grid(np.zeros((8, 8)), 2)

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_rejected(self, order):
        with pytest.raises(ValueError, match="order must be at least 1"):
            from_grid(np.ones((4, 4)), order)


class TestDegradationCoeffs:
    def test_point_input_uniform_output(self):
        order = 4
        joint = joint_from_marginals(PointPhase(0.0), UniformPhase(), 2 * order)
        grid = degradation_coeffs(joint, order)
        for m in range(-order, order + 1):
            for n in range(-order, order + 1):
                expected = 1.0 if m + n == 0 else 0.0
                assert grid.coeffs[coefficient_index(order, m, n)] == pytest.approx(expected)

    def test_uniform_input_point_output(self):
        order = 4
        joint = joint_from_marginals(UniformPhase(), PointPhase(0.0), 2 * order)
        grid = degradation_coeffs(joint, order)
        expected = np.zeros((9, 9), dtype=complex)
        expected[order, :] = 1.0
        assert np.allclose(grid.coeffs, expected)

    def test_opposed_uniform_phases(self):
        # Output uniform with the input phase its negation: the joint grid is
        # supported on the diagonal, and the reindexed grid keeps n = 0 only.
        order = 4
        side = 4 * order + 1
        joint_coeffs = np.zeros((side, side), dtype=complex)
        np.fill_diagonal(joint_coeffs, 1.0)
        joint = TorusSpectrum(2 * order, joint_coeffs, role="channel")
        grid = degradation_coeffs(joint, order)
        assert np.array_equal(grid.coeffs, output_uniformizing_degradation(order).coeffs)

    def test_default_order_is_half(self):
        joint = joint_from_marginals(UniformPhase(), UniformPhase(), 8)
        assert degradation_coeffs(joint).order == 4

    def test_joint_law_is_a_torus_spectrum(self):
        # joint_from_marginals returns the joint law itself, a channel-role
        # TorusSpectrum, and degradation_coeffs reads it as it stands.
        order = 3
        joint = joint_from_marginals(WrappedGaussian(0.2, 0.4), PointPhase(1.1), 2 * order)
        assert type(joint) is TorusSpectrum and (joint.order, joint.role) == (2 * order, "channel")
        grid = degradation_coeffs(joint, order)
        assert (grid.order, grid.role) == (order, "degradation")
        assert grid.coefficient(1, -1) == joint.coefficient(1, 0)

    def test_insufficient_joint_order(self):
        joint = joint_from_marginals(UniformPhase(), UniformPhase(), 4)
        with pytest.raises(ValueError, match="joint order"):
            degradation_coeffs(joint, 4)


class TestDegrade:
    def full_channel(self, order):
        return product_channel(
            from_wrapped(WrappedCauchy(0.4, 0.3), order),
            from_wrapped(WrappedGaussian(-0.2, 0.6), order),
        )

    def test_point_mass_degradation_is_identity(self):
        order = 5
        channel = self.full_channel(order)
        identity = degradation_coeffs(
            joint_from_marginals(PointPhase(0.0), PointPhase(0.0), 2 * order), order
        )
        assert np.allclose(degrade(channel, identity).coeffs, channel.coeffs)

    def test_delta_grid_gives_worst(self):
        order = 5
        channel = self.full_channel(order)
        killer = degradation_coeffs(
            joint_from_marginals(UniformPhase(), UniformPhase(), 2 * order), order
        )
        assert np.array_equal(degrade(channel, killer).coeffs, worst_channel(order).coeffs)

    def test_output_uniformization_keeps_gain_marginal(self):
        order = 5
        channel = self.full_channel(order)
        degraded = degrade(channel, output_uniformizing_degradation(order))
        expected = np.zeros_like(channel.coeffs)
        expected[:, order] = channel.coeffs[:, order]
        assert np.array_equal(degraded.coeffs, expected)

    def test_input_uniformization_keeps_noise_marginal(self):
        order = 5
        channel = self.full_channel(order)
        degraded = degrade(channel, input_uniformizing_degradation(order))
        expected = np.zeros_like(channel.coeffs)
        expected[order, :] = channel.coeffs[order, :]
        assert np.array_equal(degraded.coeffs, expected)

    def test_contraction(self):
        order = 4
        rng = np.random.default_rng(3)
        channel = from_grid(smooth_pdf(rng, 64), order)
        pair_pdf = smooth_pdf(rng, 64)
        degradation = degradation_coeffs(from_grid(pair_pdf, 2 * order), order)
        degraded = degrade(channel, degradation)
        assert np.all(np.abs(degraded.coeffs) <= np.abs(channel.coeffs) + 1e-12)

    def test_worst_channel_absorbing(self):
        order = 4
        rng = np.random.default_rng(4)
        degradation = degradation_coeffs(from_grid(smooth_pdf(rng, 64), 2 * order), order)
        assert np.array_equal(
            degrade(worst_channel(order), degradation).coeffs, worst_channel(order).coeffs
        )

    def test_coefficient_domain_matches_pdf_convolution(self):
        order = 6
        rng = np.random.default_rng(5)
        channel_pdf = smooth_pdf(rng, 64)
        pair_pdf = smooth_pdf(rng, 64)
        channel = from_grid(channel_pdf, order)
        degradation = from_grid(pair_pdf, order, role="degradation")
        direct = degrade(channel, degradation)
        convolved = circular_convolve(channel_pdf / channel_pdf.sum(), pair_pdf / pair_pdf.sum())
        expected = from_grid(np.clip(convolved, 0.0, None), order)
        assert np.max(np.abs(direct.coeffs - expected.coeffs)) <= 1e-8

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError, match="order"):
            degrade(worst_channel(4), output_uniformizing_degradation(5))


class TestIsStrict:
    def full_channel(self, order):
        return product_channel(
            from_wrapped(WrappedCauchy(0.0, 0.4), order),
            from_wrapped(WrappedCauchy(0.1, 0.2), order),
        )

    def test_deterministic_phases_undoable(self):
        order = 4
        channel = self.full_channel(order)
        det = degradation_coeffs(
            joint_from_marginals(PointPhase(0.8), PointPhase(2.1), 2 * order), order
        )
        result = is_strict(channel, det)
        assert result.kind is Strictness.UNDOABLE
        assert result.witness is not None

    def test_wrapped_gaussian_strict_on_full_support(self):
        order = 4
        channel = self.full_channel(order)
        blur = degradation_coeffs(
            joint_from_marginals(WrappedGaussian(0.0, 0.5), WrappedGaussian(0.0, 0.5), 2 * order),
            order,
        )
        assert is_strict(channel, blur).kind is Strictness.STRICT

    def test_worst_channel_is_null(self):
        order = 4
        blur = degradation_coeffs(
            joint_from_marginals(WrappedGaussian(0.0, 0.5), WrappedGaussian(0.0, 0.5), 2 * order),
            order,
        )
        assert is_strict(worst_channel(order), blur).kind is Strictness.NULL_CHANNEL

    def test_undone_composition_has_unit_magnitude(self):
        order = 4
        channel = self.full_channel(order)
        forward = degradation_coeffs(
            joint_from_marginals(PointPhase(0.8), PointPhase(2.1), 2 * order), order
        )
        backward = degradation_coeffs(
            joint_from_marginals(PointPhase(-0.8), PointPhase(-2.1), 2 * order), order
        )
        composite = forward.coeffs * backward.coeffs
        support = np.abs(channel.coeffs) > 1e-9
        assert np.max(np.abs(np.abs(composite[support]) - 1.0)) <= 1e-12
        round_trip = degrade(degrade(channel, forward), backward)
        assert np.max(np.abs(round_trip.coeffs - channel.coeffs)) <= 1e-12

    def test_wrapped_family_scale_order(self):
        order = 6
        for low, high in [
            (WrappedGaussian(0.0, 0.5), WrappedGaussian(0.0, 1.5)),
            (WrappedCauchy(0.0, 0.2), WrappedCauchy(0.0, 0.9)),
        ]:
            seq_low = np.abs(from_wrapped(low, order))
            seq_high = np.abs(from_wrapped(high, order))
            assert np.all(seq_high <= seq_low + 1e-15)
            assert wrapped_lub(low, high) == high
            assert wrapped_glb(low, high) == low

    @pytest.mark.parametrize("a, b", [
        (WrappedGaussian(0.0, 1.0), WrappedCauchy(0.0, 1.0)),
        (UniformPhase(), UniformPhase()),
        (PointPhase(0.3), PointPhase(0.3)),
    ], ids=["mixed", "uniform", "point"])
    def test_wrapped_lattice_rejects_mixed_families(self, a, b):
        for operation in (wrapped_lub, wrapped_glb):
            with pytest.raises(ValueError, match="one wrapped family"):
                operation(a, b)


class TestSpectrumValidation:
    def test_origin_must_be_one(self):
        coeffs = np.zeros((5, 5), dtype=complex)
        with pytest.raises(ValueError, match="origin"):
            TorusSpectrum(2, coeffs)

    def test_magnitude_bound(self):
        coeffs = np.zeros((5, 5), dtype=complex)
        coeffs[2, 2] = 1.0
        coeffs[3, 3] = 1.5
        coeffs[1, 1] = 1.5
        with pytest.raises(ValueError, match="magnitude"):
            TorusSpectrum(2, coeffs)

    def test_hermitian_required(self):
        coeffs = np.zeros((5, 5), dtype=complex)
        coeffs[2, 2] = 1.0
        coeffs[3, 2] = 0.5j
        with pytest.raises(ValueError, match="Hermitian"):
            TorusSpectrum(2, coeffs)

    def test_non_distribution_rejected(self):
        # Hermitian with |c| <= 1 but violating positive-definiteness: a pure
        # cosine with weight above 1/2 drives the smoothed density negative.
        coeffs = np.zeros((9, 9), dtype=complex)
        coeffs[4, 4] = 1.0
        coeffs[5, 4] = -0.95
        coeffs[3, 4] = -0.95
        with pytest.raises(ValueError, match="density"):
            TorusSpectrum(4, coeffs)

    def test_json_round_trip(self):
        channel = product_channel(
            from_wrapped(WrappedGaussian(0.3, 0.4), 3), from_wrapped(WrappedCauchy(0.0, 0.5), 3)
        )
        again = phase.from_json_dict(phase.to_json_dict(channel))
        assert again.order == channel.order
        assert again.role == channel.role
        assert np.max(np.abs(again.coeffs - channel.coeffs)) <= 1e-15


# Explicit-sum references for the FFT-based transforms: the sums an FFT must
# reproduce, written out term by term.
def reference_smoothed_min(order, coeffs):
    m = np.arange(-order, order + 1)
    weights = 1.0 - np.abs(m) / (order + 1.0)
    points = max(4 * order, 8)
    theta = 2.0 * np.pi * np.arange(points) / points
    basis = np.exp(-1j * np.outer(theta, m))
    density = np.real(basis @ (coeffs * np.outer(weights, weights)) @ basis.T) / (2.0 * np.pi) ** 2
    return float(density.min())


def reference_from_grid(pdf, order):
    weights = pdf / pdf.sum()
    m = np.arange(-order, order + 1)
    rows = np.exp(2j * np.pi * np.outer(m, np.arange(pdf.shape[0])) / pdf.shape[0])
    cols = np.exp(2j * np.pi * np.outer(m, np.arange(pdf.shape[1])) / pdf.shape[1])
    coeffs = rows @ weights @ cols.T
    coeffs[order, order] = 1.0
    return coeffs


def random_hermitian(rng, order):
    side = 2 * order + 1
    raw = (rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))) / side
    coeffs = (raw + np.conj(np.flip(raw))) / 2.0
    coeffs[order, order] = 1.0
    return coeffs


class TestFourierReferences:
    # Order 128 is the 2 * 64 joint grid a degradation of order 64 validates.
    # The skewed case subtracts skew * sign(n), which is anti-Hermitian: it
    # stays within _HERMITIAN_TOL and the real part of the full sum drops it,
    # but the columns n >= 0 alone would lower the uniform grid's minimum.
    @pytest.mark.parametrize(
        "order, skew",
        [pytest.param(order, 0.0, id=str(order)) for order in (1, 2, 3, 4, 7, 16, 31, 64, 128)]
        + [pytest.param(64, 4.5e-13, id="64-anti-hermitian")],
    )
    def test_smoothed_min_matches_explicit_sum(self, order, skew):
        rng = np.random.default_rng(order)
        grids = [
            random_hermitian(rng, order),
            product_channel(
                from_wrapped(WrappedCauchy(0.3, 0.2), order), from_wrapped(PointPhase(-1.1), order)
            ).coeffs,
            worst_channel(order).coeffs,
        ]
        for coeffs in grids:
            coeffs = coeffs - skew * np.sign(np.arange(-order, order + 1))
            assert np.max(np.abs(np.conj(np.flip(coeffs)) - coeffs)) <= phase._HERMITIAN_TOL
            assert abs(phase._smoothed_min(order, coeffs) - reference_smoothed_min(order, coeffs)) <= 1e-12

    def test_smoothed_min_on_the_rejected_grid(self):
        # The grid of test_non_distribution_rejected: same value, below -EPS_GIBBS.
        coeffs = np.zeros((9, 9), dtype=complex)
        coeffs[4, 4] = 1.0
        coeffs[5, 4] = coeffs[3, 4] = -0.95
        low = phase._smoothed_min(4, coeffs)
        assert abs(low - reference_smoothed_min(4, coeffs)) <= 1e-12
        assert low < -phase.EPS_GIBBS

    @pytest.mark.parametrize("shape, order", [((32, 32), 4), ((12, 20), 5), ((6, 9), 4), ((5, 5), 7)])
    def test_from_grid_matches_explicit_sum(self, shape, order):
        # The last two cases ask for order >= rows / 2, where frequencies alias.
        pdf = np.random.default_rng(sum(shape)).random(shape) + 0.01
        built = from_grid(pdf, order)
        assert np.max(np.abs(built.coeffs - reference_from_grid(pdf, order))) <= 1e-12

    @pytest.mark.parametrize("order", [1, 3, 8])
    def test_degradation_coeffs_matches_row_loop(self, order):
        rng = np.random.default_rng(40 + order)
        joint = from_grid(smooth_pdf(rng, 48), 2 * order + int(rng.integers(0, 3)))
        expected = np.empty((2 * order + 1, 2 * order + 1), dtype=complex)
        for i, m in enumerate(range(-order, order + 1)):
            for j, n in enumerate(range(-order, order + 1)):
                expected[i, j] = joint.coefficient(m, m + n)
        assert np.array_equal(degradation_coeffs(joint, order).coeffs, expected)


def hermitian_sequence(rng, order, spread):
    # Unit at the origin with off-origin magnitudes summing to ``spread``
    # (each at most 1): the Fejer series stays positive below spread 1/2 and
    # may dip below zero past it.
    tail = rng.standard_normal(order) + 1j * rng.standard_normal(order)
    tail *= spread / np.abs(tail).sum()
    tail /= max(1.0, np.abs(tail).max())
    return np.concatenate([np.conj(tail[::-1]), [1.0], tail])


def wrapped_family(rng):
    kind = int(rng.integers(4))
    mean = float(rng.uniform(-np.pi, np.pi))
    if kind == 0:
        return WrappedGaussian(mean, float(rng.uniform(0.0, 3.0)))
    if kind == 1:
        return WrappedCauchy(mean, float(rng.uniform(0.0, 2.0)))
    return PointPhase(mean) if kind == 2 else UniformPhase()


def validation_outcome(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return "accepted"


def is_hermitian(seq):
    return np.array_equal(np.conj(seq[::-1]), seq)


class TestRankOneRule:
    # product_channel and joint_from_marginals decide a grid outer(h, v) with
    # exactly Hermitian factors from the factors' 1-D Fejer series; every
    # other grid goes through the 2-D check.
    def test_factor_rule_matches_the_two_dimensional_check(self):
        rng = np.random.default_rng(2020)
        outcomes = {"accepted": 0, "density": 0, "fallback": 0}
        for order in range(1, 65):
            wrapped = [from_wrapped(wrapped_family(rng), order) for _ in range(6)]
            loose = [hermitian_sequence(rng, order, rng.uniform(0.0, 3.0)) for _ in range(3)]
            twist = np.exp(1j * rng.uniform(-np.pi, np.pi))
            pairs = [
                (wrapped[0], wrapped[1]),
                (wrapped[2], wrapped[3]),
                (loose[0], wrapped[4]),
                (wrapped[5], loose[1]),
                (loose[1], loose[2]),
                # Not Hermitian, with a Hermitian outer product.
                (1j * wrapped[0], -1j * wrapped[1]),
                (twist * loose[0], np.conj(twist) * wrapped[4]),
            ]
            for h, v in pairs:
                coeffs = np.outer(h, v)
                expected = validation_outcome(lambda: TorusSpectrum(order, coeffs))
                assert validation_outcome(lambda: product_channel(h, v)) == expected, (order, expected)
                if is_hermitian(h) and is_hermitian(v):
                    low = phase._product_min(order, h, v)
                    assert abs(low - phase._smoothed_min(order, coeffs)) <= 1e-12
                else:
                    outcomes["fallback"] += 1
                if expected == "accepted":
                    outcomes["accepted"] += 1
                else:
                    assert expected.startswith("reconstructed density dips to"), expected
                    outcomes["density"] += 1
        # Every wrapped and loose factor took the 1-D rule; only the two
        # twisted pairs per order fell back.
        assert outcomes["fallback"] == 2 * 64, outcomes
        assert min(outcomes.values()) >= 20, outcomes

    def test_built_spectrum_matches_the_constructor(self):
        order = 5
        h = from_wrapped(WrappedGaussian(0.4, 0.3), order)
        v = from_wrapped(WrappedCauchy(-1.2, 0.1), order)
        expected = TorusSpectrum(order, np.outer(h, v))
        for built in (product_channel(h, v), joint_from_marginals(WrappedGaussian(0.4, 0.3),
                                                                  WrappedCauchy(-1.2, 0.1), order)):
            assert (built.order, built.role) == (expected.order, expected.role)
            assert type(built.order) is int
            assert built.coeffs.tobytes() == expected.coeffs.tobytes()
            assert not built.coeffs.flags.writeable
            with pytest.raises(AttributeError):
                built.role = "degradation"

    def test_two_dimensional_check_runs_off_the_rule_only(self, monkeypatch):
        calls = []
        smoothed_min = phase._smoothed_min
        monkeypatch.setattr(
            phase, "_smoothed_min", lambda order, coeffs: calls.append(order) or smoothed_min(order, coeffs)
        )

        def checks(build):
            calls.clear()
            build()
            return len(calls)

        order = 4
        families = [WrappedGaussian(0.3, 0.5), WrappedCauchy(-1.0, 0.2), PointPhase(0.7), UniformPhase()]
        for a in families:
            for b in families:
                assert checks(lambda: product_channel(from_wrapped(a, order), from_wrapped(b, order))) == 0
                assert checks(lambda: joint_from_marginals(a, b, 2 * order)) == 0
        h, v = from_wrapped(families[0], order), from_wrapped(families[1], order)
        channel = product_channel(h, v)
        joint = joint_from_marginals(families[2], families[1], 2 * order)
        grid = degradation_coeffs(joint, order)
        assert checks(lambda: product_channel(1j * h, -1j * v)) == 1
        assert checks(lambda: phase.from_json_dict(phase.to_json_dict(channel))) == 1
        assert checks(lambda: from_grid(np.ones((8, 8)), order)) == 1
        assert checks(lambda: degrade(channel, grid)) == 1
        assert checks(lambda: degradation_coeffs(joint, order)) == 1
        assert checks(lambda: TorusSpectrum(order, channel.coeffs)) == 1


    @staticmethod
    def edge_factors(rng, order):
        # Exactly Hermitian factors near each entrywise bound, and factors
        # that are not finite or not Hermitian.
        def sequence(origin=1.0, scale=1.0):
            seq = hermitian_sequence(rng, order, 0.4) * scale
            seq[order] = origin
            return seq

        def peak(value):
            seq = sequence()
            seq[0] = seq[-1] = value
            return seq

        v = from_wrapped(WrappedCauchy(float(rng.uniform(-3, 3)), 0.1), order)
        bad = sequence()
        bad[-1] = np.nan
        skew = sequence()
        skew[order + 1] += 1e-3j
        return {
            "magnitude above 1": [(peak(1.5), v), (peak(1.0 + 2e-12), peak(1.0)),
                                  (peak(1.0 + 6e-13), peak(1.0 + 6e-13))],
            "magnitude within the tolerance": [(peak(1.0 + 9e-13), peak(1.0)), (peak(1.0), v)],
            "non-finite": [(bad, v), (peak(np.inf), v), (v, peak(-np.inf)), (peak(np.nan), v)],
            "origin off": [(sequence(origin=1.0 + 2e-12), v), (v, sequence(origin=0.5)),
                           (sequence(origin=1.0 - 3e-12), sequence())],
            "origin within the tolerance": [(sequence(origin=1.0 + 5e-13), v)],
            "not Hermitian": [(sequence() * np.exp(0.3j * np.arange(-order, order + 1) ** 2), v),
                              (v, skew)],
        }

    def test_edge_factors_match_the_constructor(self):
        rng = np.random.default_rng(2022)
        seen = {}
        for order in (1, 2, 3, 5, 8, 16, 64):
            for kind, pairs in self.edge_factors(rng, order).items():
                for h, v in pairs:
                    # inf * 0 in the outer product is NaN; the checks reject it.
                    with np.errstate(invalid="ignore"):
                        expected = validation_outcome(lambda: TorusSpectrum(order, np.outer(h, v)))
                        built = validation_outcome(lambda: product_channel(h, v))
                    assert built == expected, (order, kind, expected)
                    seen.setdefault(kind, set()).add(expected.split(":")[0])
        assert seen == {
            "magnitude above 1": {"coefficient magnitudes must not exceed 1"},
            "magnitude within the tolerance": {"accepted"},
            "non-finite": {"coeffs must be finite"},
            "origin off": {"the coefficient at the origin must equal 1"},
            "origin within the tolerance": {"accepted"},
            "not Hermitian": {"coefficients are not Hermitian"},
        }, seen

    def test_entrywise_checks_run_off_the_factor_bound_only(self, monkeypatch):
        calls = []
        check_entries = phase._check_entries
        monkeypatch.setattr(
            phase, "_check_entries", lambda *args: calls.append(args[0]) or check_entries(*args)
        )

        def checks(build):
            calls.clear()
            build()
            return len(calls)

        order = 4
        families = [WrappedGaussian(0.3, 0.5), WrappedCauchy(-1.0, 0.2), PointPhase(0.7), UniformPhase()]
        for a in families:
            for b in families:
                assert checks(lambda: product_channel(from_wrapped(a, order), from_wrapped(b, order))) == 0
                assert checks(lambda: joint_from_marginals(a, b, 2 * order)) == 0
        h, v = from_wrapped(families[0], order), from_wrapped(families[1], order)
        channel = product_channel(h, v)
        joint = joint_from_marginals(families[2], families[1], 2 * order)
        assert checks(lambda: product_channel(1j * h, -1j * v)) == 1
        peaked = h.copy()
        peaked[0] = peaked[-1] = 1.5
        with pytest.raises(ValueError, match="magnitudes must not exceed 1"):
            checks(lambda: product_channel(peaked, v))
        assert len(calls) == 1
        assert checks(lambda: phase.from_json_dict(phase.to_json_dict(channel))) == 1
        assert checks(lambda: degradation_coeffs(joint, order)) == 1
        assert checks(lambda: TorusSpectrum(order, channel.coeffs)) == 1


class TestDocumentCodec:
    def test_signed_zeros_round_trip_byte_for_byte(self):
        doc = phase.to_json_dict(worst_channel(2))
        doc["coeffs"] = [[-0.0, -0.0] if re == 0.0 else [re, -0.0] for re, _ in doc["coeffs"]]
        text = json.dumps(doc)
        assert json.dumps(phase.to_json_dict(phase.from_json_dict(json.loads(text)))) == text
        assert "-0.0" in text

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            (lambda coeffs: [["0.0", "0.0"], *coeffs[1:]], TypeError),
            (lambda coeffs: [[None, 0.0], *coeffs[1:]], TypeError),
            (lambda coeffs: [[bool(re), bool(im)] for re, im in coeffs], TypeError),
            (lambda coeffs: [[0.0, 0.0, 0.0], *coeffs[1:]], ValueError),
            (lambda coeffs: [pair + [0.0] for pair in coeffs], ValueError),
            (lambda coeffs: coeffs[:-1], ValueError),
            (lambda coeffs: [[0.5, 0.5], [True, False], *coeffs[2:]], TypeError),
            (lambda coeffs: [*coeffs[:-1], [0, False]], TypeError),
        ],
        ids=["string", "null", "bool", "one-three-number-entry", "three-number-entries", "short-list",
             "mixed-bool", "int-and-bool"],
    )
    def test_malformed_coefficients_rejected(self, corrupt, error):
        doc = phase.to_json_dict(worst_channel(2))
        doc["coeffs"] = corrupt(doc["coeffs"])
        with pytest.raises(error):
            phase.from_json_dict(doc)

    @pytest.mark.parametrize(
        "convert",
        [
            lambda coeffs: [tuple(pair) for pair in coeffs],
            tuple,
            np.array,
            lambda coeffs: [[np.float64(re), np.float64(im)] for re, im in coeffs],
            lambda coeffs: [[int(re), int(im)] if re.is_integer() and im.is_integer() else [re, im]
                            for re, im in coeffs],
        ],
        ids=["tuple-pairs", "tuple", "ndarray", "numpy-scalars", "ints"],
    )
    def test_other_number_containers_still_load(self, convert):
        channel = product_channel(from_wrapped(PointPhase(0.7), 2), from_wrapped(UniformPhase(), 2))
        doc = phase.to_json_dict(channel)
        doc["coeffs"] = convert(doc["coeffs"])
        assert np.array_equal(phase.from_json_dict(doc).coeffs, channel.coeffs)

    def test_writer_emits_the_coefficients_as_pairs(self):
        channel = product_channel(
            from_wrapped(WrappedGaussian(0.3, 0.4), 3), from_wrapped(WrappedCauchy(-1.0, 0.5), 3)
        )
        flat = channel.coeffs.ravel()
        assert phase.to_json_dict(channel)["coeffs"] == np.column_stack([flat.real, flat.imag]).tolist()

    @pytest.mark.parametrize("order", [1.5, 1.0, True, "1"], ids=["fraction", "float", "bool", "string"])
    def test_non_integer_order_rejected(self, order):
        doc = phase.to_json_dict(worst_channel(1))
        doc["order"] = order
        with pytest.raises(ValueError, match="order must be an integer"):
            phase.from_json_dict(doc)
