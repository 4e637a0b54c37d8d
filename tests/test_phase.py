import json

import numpy as np
import pytest

from chanorder import phase
from chanorder.phase import (
    PhaseDegradation,
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
        joint = PhaseDegradation(TorusSpectrum(2 * order, joint_coeffs, role="channel"))
        grid = degradation_coeffs(joint, order)
        assert np.array_equal(grid.coeffs, output_uniformizing_degradation(order).coeffs)

    def test_default_order_is_half(self):
        joint = joint_from_marginals(UniformPhase(), UniformPhase(), 8)
        assert degradation_coeffs(joint).order == 4

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
        degradation = degradation_coeffs(
            PhaseDegradation(from_grid(pair_pdf, 2 * order)), order
        )
        degraded = degrade(channel, degradation)
        assert np.all(np.abs(degraded.coeffs) <= np.abs(channel.coeffs) + 1e-12)

    def test_worst_channel_absorbing(self):
        order = 4
        rng = np.random.default_rng(4)
        degradation = degradation_coeffs(
            PhaseDegradation(from_grid(smooth_pdf(rng, 64), 2 * order)), order
        )
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
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 7, 16, 31, 64])
    def test_smoothed_min_matches_explicit_sum(self, order):
        rng = np.random.default_rng(order)
        grids = [
            random_hermitian(rng, order),
            product_channel(
                from_wrapped(WrappedCauchy(0.3, 0.2), order), from_wrapped(PointPhase(-1.1), order)
            ).coeffs,
        ]
        for coeffs in grids:
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
        joint = PhaseDegradation(from_grid(smooth_pdf(rng, 48), 2 * order + int(rng.integers(0, 3))))
        expected = np.empty((2 * order + 1, 2 * order + 1), dtype=complex)
        for i, m in enumerate(range(-order, order + 1)):
            for j, n in enumerate(range(-order, order + 1)):
                expected[i, j] = joint.joint.coefficient(m, m + n)
        assert np.array_equal(degradation_coeffs(joint, order).coeffs, expected)


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
            (lambda coeffs: [[0.0, 0.0, 0.0], *coeffs[1:]], ValueError),
            (lambda coeffs: [pair + [0.0] for pair in coeffs], ValueError),
            (lambda coeffs: coeffs[:-1], ValueError),
        ],
        ids=["string", "null", "one-three-number-entry", "three-number-entries", "short-list"],
    )
    def test_malformed_coefficients_rejected(self, corrupt, error):
        doc = phase.to_json_dict(worst_channel(2))
        doc["coeffs"] = corrupt(doc["coeffs"])
        with pytest.raises(error):
            phase.from_json_dict(doc)
