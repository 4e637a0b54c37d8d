"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np

from chanorder import dmc, lgc, noise, phase
from conftest import check_certificate, random_degradation, random_profile, random_stochastic


def report(number, ok, detail=""):
    line = f"[ACCEPTANCE {number:02d}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_bsc_characterization():
    """Brute-force inclusion agrees with the analytic crossover rule."""
    start = time.perf_counter()
    grid = np.round(np.arange(0.0, 0.5001, 0.05), 10)
    mismatches = []
    for p in grid:
        for q in grid:
            brute = dmc.includes(dmc.bsc(p), dmc.bsc(q), tolerance=1e-9).included
            rule = abs(1.0 - 2.0 * q) <= abs(1.0 - 2.0 * p)
            if brute != rule:
                mismatches.append((p, q, brute, rule))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 5.0
    report(1, ok, f"grid {grid.size}x{grid.size}, mismatches={len(mismatches)}, {elapsed:.2f}s")


def test_criterion_02_error_probability_monotonicity():
    """Degraded channels never beat their source at best-code error probability."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    violations = []
    for case in range(50):
        n1, m1 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        a = random_stochastic(rng, n1, m1)
        n2, m2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        pairs, weights = random_degradation(rng, a, n2, m2)
        b = dmc.degrade(a, pairs, weights, n_outputs=m2)
        for block in (1, 2):
            err_a = dmc.best_error_probability(a, 2, block)
            err_b = dmc.best_error_probability(b, 2, block)
            if err_a > err_b + 1e-12:
                violations.append((case, block, err_a, err_b))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 60.0
    report(2, ok, f"50 degraded pairs, M=2, n in {{1,2}}, violations={len(violations)}, {elapsed:.2f}s")


def test_criterion_03_feasibility_certificates():
    """Witnesses replay within 1e-9; separators strictly beat every candidate."""
    rng = np.random.default_rng(3)
    bad = []
    feasible_count = 0
    for case in range(200):
        n1, m1 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        better = random_stochastic(rng, n1, m1)
        n2, m2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        if rng.random() < 0.5:
            pairs, weights = random_degradation(rng, better, n2, m2)
            worse = dmc.degrade(better, pairs, weights, n_outputs=m2)
        else:
            worse = random_stochastic(rng, n2, m2)
        decision = dmc.includes(better, worse, tolerance=1e-9)
        feasible_count += decision.included
        try:
            check_certificate(better, worse, decision)
        except AssertionError as failure:
            bad.append((case, decision.included, str(failure)))
    ok = not bad and feasible_count > 0 and feasible_count < 200
    report(3, ok, f"200 queries ({feasible_count} feasible), failures={len(bad)}")


def test_criterion_04_noise_lattice():
    """Lattice axioms, order consistency, variance strictness, atom rules."""
    rng = np.random.default_rng(4)
    profiles = [random_profile(rng) for _ in range(100)]
    failures = []

    def equal(a, b):
        return noise.check_order(a, b, 1e-9).relation is noise.Relation.EQUAL

    for i in range(0, 100, 2):
        a, b = profiles[i], profiles[i + 1]
        if not equal(noise.lub(a, b), noise.lub(b, a)):
            failures.append(("lub commutes", i))
        if not equal(noise.glb(a, b), noise.glb(b, a)):
            failures.append(("glb commutes", i))
        if not (equal(noise.lub(a, a), a) and equal(noise.glb(a, a), a)):
            failures.append(("idempotence", i))
        if not equal(noise.lub(a, noise.glb(a, b)), a):
            failures.append(("absorption lub", i))
        if not equal(noise.glb(a, noise.lub(a, b)), a):
            failures.append(("absorption glb", i))
        top, bottom = noise.lub(a, b), noise.glb(a, b)
        for side in (a, b):
            up = noise.check_order(side, top, 1e-9).relation
            down = noise.check_order(bottom, side, 1e-9).relation
            if up not in (noise.Relation.SECOND_WORSE, noise.Relation.EQUAL):
                failures.append(("order lub", i))
            if down not in (noise.Relation.SECOND_WORSE, noise.Relation.EQUAL):
                failures.append(("order glb", i))

    for i in range(50):
        a = profiles[i]
        extra = profiles[99 - i]
        if noise.variance(extra) == 0.0:
            continue
        b = noise.profile_sum(a, extra)
        outcome = noise.check_order(a, b, 1e-9)
        if outcome.relation is not noise.Relation.SECOND_WORSE:
            failures.append(("strict order", i))
        elif not noise.variance(b) > noise.variance(a):
            failures.append(("strict variance", i))

    def atom(loc, mass):
        return noise.MonotoneProfile(atoms=[(loc, mass)])

    if noise.lub(atom(0, 1), atom(0, 2)).atoms != ((0.0, 2.0),):
        failures.append(("lub same location",))
    if noise.lub(atom(0, 1), atom(1, 2)).atoms != ((0.0, 1.0), (1.0, 2.0)):
        failures.append(("lub distinct locations",))
    if noise.glb(atom(0, 1), atom(0, 2)).atoms != ((0.0, 1.0),):
        failures.append(("glb same location",))
    if noise.glb(atom(0, 1), atom(1, 2)).atoms != ():
        failures.append(("glb distinct locations",))

    report(4, not failures, f"100 profiles, failures={failures[:3] if failures else 0}")


def test_criterion_05_characteristic_function_quadrature():
    """Exact Gaussian terms; quadrature matches a compound-Poisson MC."""
    failures = []
    for sigma2 in (0.25, 1.0, 4.0):
        for zeta in np.linspace(-3.0, 3.0, 13):
            value = noise.log_cf(noise.gaussian(sigma2), float(zeta))
            expected = -sigma2 * zeta**2 / 2.0
            if expected == 0.0:
                if value != 0.0:
                    failures.append(("gaussian zero", sigma2, zeta))
            elif abs(value - expected) / abs(expected) > 1e-12:
                failures.append(("gaussian", sigma2, zeta))

    # Density-only profile: unit slope on [1, 2].  The matching jump measure
    # has rate 1/2 and jump density 2/u^2 on [1, 2] (inverse CDF 2/(2 - p)),
    # with mean compensation log 2.
    profile = noise.MonotoneProfile(np.linspace(1.0, 2.0, 2049), np.ones(2049))
    rng = np.random.default_rng(55)
    n = 1_000_000
    counts = rng.poisson(0.5, n)
    jumps = 2.0 / (2.0 - rng.random(int(counts.sum())))
    owners = np.repeat(np.arange(n), counts)
    draws = np.bincount(owners, weights=jumps, minlength=n) - np.log(2.0)
    worst_gap = 0.0
    for zeta in np.linspace(-3.0, 3.0, 13):
        if zeta == 0.0:
            continue
        empirical = np.exp(1j * zeta * draws).mean()
        mc_log = np.log(empirical)
        value = noise.log_cf(profile, float(zeta))
        gap = min(
            abs(value - (mc_log + 2j * np.pi * k)) for k in (-1, 0, 1)
        )
        worst_gap = max(worst_gap, gap)
        if gap > 1e-2:
            failures.append(("density", float(zeta), gap))

    report(5, not failures, f"max MC gap {worst_gap:.2e}, failures={len(failures)}")


def _random_torus_pdf(rng, points):
    theta = 2.0 * np.pi * np.arange(points) / points
    t1, t2 = np.meshgrid(theta, theta, indexing="ij")
    a, b, c = rng.random(3) * 1.5
    c1, c2, c3 = rng.random(3) * 2.0 * np.pi
    return np.exp(a * np.cos(t1 - c1) + b * np.cos(t2 - c2) + c * np.cos(t1 + t2 - c3))


def test_criterion_06_phase_duality_and_extremals():
    """Coefficient products match PDF circular convolution; extremals exact."""
    rng = np.random.default_rng(6)
    order, points = 16, 128
    worst_gap = 0.0
    failures = []
    for case in range(20):
        channel_pdf = _random_torus_pdf(rng, points)
        pair_pdf = _random_torus_pdf(rng, points)
        channel = phase.from_grid(channel_pdf, order)
        degradation = phase.from_grid(pair_pdf, order, role="degradation")
        direct = phase.degrade(channel, degradation)
        convolved = np.real(np.fft.ifft2(np.fft.fft2(channel_pdf / channel_pdf.sum())
                                         * np.fft.fft2(pair_pdf / pair_pdf.sum())))
        expected = phase.from_grid(np.clip(convolved, 0.0, None), order)
        gap = float(np.max(np.abs(direct.coeffs - expected.coeffs)))
        worst_gap = max(worst_gap, gap)
        if gap > 1e-8:
            failures.append(("duality", case, gap))

        out_uni = phase.degrade(channel, phase.output_uniformizing_degradation(order))
        want = np.zeros_like(channel.coeffs)
        want[:, order] = channel.coeffs[:, order]
        if not np.array_equal(out_uni.coeffs, want):
            failures.append(("output uniformization", case))
        in_uni = phase.degrade(channel, phase.input_uniformizing_degradation(order))
        want = np.zeros_like(channel.coeffs)
        want[order, :] = channel.coeffs[order, :]
        if not np.array_equal(in_uni.coeffs, want):
            failures.append(("input uniformization", case))
    report(6, not failures, f"20 pairs at order 16, max gap {worst_gap:.2e}")


def _strictness_oracle(channel, degradation, eps=1e-9):
    order = channel.order
    support = []
    for m in range(-order, order + 1):
        for n in range(-order, order + 1):
            if (m, n) != (0, 0) and abs(channel.coefficient(m, n)) > eps:
                support.append((m, n))
    if not support:
        return "null_channel"
    for m, n in support:
        if abs(degradation.coefficient(m, n)) < 1.0 - eps:
            return "strict"
    return "undoable"


def test_criterion_07_strictness_classification():
    """Classifier agrees with a direct magnitude oracle on 50 seeded cases."""
    rng = np.random.default_rng(7)
    order = 6
    failures = []

    def random_family():
        kind = rng.integers(0, 4)
        if kind == 0:
            return phase.UniformPhase()
        if kind == 1:
            return phase.PointPhase(float(rng.uniform(0, 2 * np.pi)))
        if kind == 2:
            return phase.WrappedGaussian(float(rng.uniform(0, 2 * np.pi)), float(rng.uniform(0, 1.2)))
        return phase.WrappedCauchy(float(rng.uniform(0, 2 * np.pi)), float(rng.uniform(0, 1.0)))

    agreements = 0
    for case in range(50):
        roll = rng.random()
        if roll < 0.15:
            channel = phase.worst_channel(order)
        else:
            channel = phase.product_channel(
                phase.from_wrapped(random_family(), order),
                phase.from_wrapped(random_family(), order),
            )
        degradation = phase.degradation_coeffs(
            phase.joint_from_marginals(random_family(), random_family(), 2 * order), order
        )
        outcome = phase.is_strict(channel, degradation).kind.value
        oracle = _strictness_oracle(channel, degradation)
        if outcome == oracle:
            agreements += 1
        else:
            failures.append((case, outcome, oracle))

    full_support = phase.product_channel(
        phase.from_wrapped(phase.WrappedCauchy(0.3, 0.4), order),
        phase.from_wrapped(phase.WrappedGaussian(0.0, 0.3), order),
    )
    deterministic = phase.degradation_coeffs(
        phase.joint_from_marginals(phase.PointPhase(1.2), phase.PointPhase(0.4), 2 * order), order
    )
    if phase.is_strict(full_support, deterministic).kind is not phase.Strictness.UNDOABLE:
        failures.append(("deterministic should be undoable",))
    gaussian_blur = phase.degradation_coeffs(
        phase.joint_from_marginals(
            phase.WrappedGaussian(0.0, 0.5), phase.WrappedGaussian(0.0, 0.5), 2 * order
        ),
        order,
    )
    if phase.is_strict(full_support, gaussian_blur).kind is not phase.Strictness.STRICT:
        failures.append(("gaussian blur should be strict",))
    if phase.is_strict(phase.worst_channel(order), gaussian_blur).kind is not phase.Strictness.NULL_CHANNEL:
        failures.append(("worst channel should be null",))

    report(7, not failures, f"oracle agreement {agreements}/50, failures={failures[:3] if failures else 0}")


def test_criterion_08_lgc_invariance_and_lattice():
    """Canonical spectra invariant under admissible transforms; lattice works."""
    rng = np.random.default_rng(8)
    failures = []
    worst_gap = 0.0
    for case in range(100):
        outputs = int(rng.integers(1, 6))
        inputs = int(rng.integers(1, 6))
        h = rng.standard_normal((outputs, inputs)) * (0.5 + rng.random())
        a = rng.standard_normal((outputs, outputs))
        sigma = a @ a.T + (0.3 + rng.random()) * np.eye(outputs)
        channel = lgc.GaussianChannel(h, sigma)

        extra = int(rng.integers(0, 3))
        b = lgc.sample_haar_orthogonal(inputs + extra, [8, case, 0])[:inputs, :]
        scales = 0.5 + 1.5 * rng.random(outputs)
        c = (
            lgc.sample_haar_orthogonal(outputs, [8, case, 1])
            @ np.diag(scales)
            @ lgc.sample_haar_orthogonal(outputs, [8, case, 2])
        )
        base = lgc.canonicalize(channel)
        transformed = lgc.canonicalize(
            lgc.GaussianChannel(c @ channel.H @ b, c @ channel.Sigma @ c.T)
        )
        length = max(base.values.size, transformed.values.size)
        gap = float(np.max(np.abs(transformed.padded(length) - base.padded(length))))
        worst_gap = max(worst_gap, gap)
        if gap > 1e-8:
            failures.append(("invariance", case, gap))

    first = lgc.SingularSpectrum([2.0, 0.5])
    second = lgc.SingularSpectrum([1.0, 1.0])
    forward = lgc.spectrum_includes(first, second)
    backward = lgc.spectrum_includes(second, first)
    if forward.included or backward.included:
        failures.append(("stream pair should be incomparable",))
    if not np.allclose(lgc.lub(first, second).values, [2.0, 1.0]):
        failures.append(("stream lub",))
    if not np.allclose(lgc.glb(first, second).values, [1.0, 0.5]):
        failures.append(("stream glb",))

    for case in range(100):
        a_spec = lgc.SingularSpectrum(np.sort(rng.random(4))[::-1])
        b_spec = lgc.SingularSpectrum(np.sort(rng.random(4))[::-1])
        join, meet = lgc.lub(a_spec, b_spec), lgc.glb(a_spec, b_spec)
        if not np.array_equal(join.values, lgc.lub(b_spec, a_spec).values):
            failures.append(("lattice commutes", case))
        if not np.array_equal(lgc.lub(a_spec, meet).values, a_spec.values):
            failures.append(("lattice absorption", case))
        for side in (a_spec, b_spec):
            if not lgc.spectrum_includes(join, side).included:
                failures.append(("lattice order join", case))
            if not lgc.spectrum_includes(side, meet).included:
                failures.append(("lattice order meet", case))

    report(8, not failures, f"100 transforms, max spectrum gap {worst_gap:.2e}")


def test_criterion_09_haar_sampler():
    """Orthogonality to 1e-10, symmetric entries, exact spectral invariance."""
    failures = []
    for n in range(1, 17):
        q = lgc.sample_haar_orthogonal(n, [9, n])
        if float(np.max(np.abs(q.T @ q - np.eye(n)))) > 1e-10:
            failures.append(("orthogonality", n))

    entries = np.array([lgc.sample_haar_orthogonal(3, [99, i])[0, 0] for i in range(10_000)])
    three_sigma = 3.0 * np.sqrt((1.0 / 3.0) / 10_000)
    mean = float(entries.mean())
    if abs(mean) > three_sigma:
        failures.append(("entry mean", mean))

    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 3))
    base = np.linalg.svd(a, compute_uv=False)
    for i in range(20):
        q = lgc.sample_haar_orthogonal(3, [9, 9, i])
        rotated = np.linalg.svd(q @ a, compute_uv=False)
        if float(np.max(np.abs(rotated - base))) > 1e-10:
            failures.append(("rotation invariance", i))

    report(9, not failures, f"entry mean {mean:+.4f} (band {three_sigma:.4f})")


def test_criterion_10_ensemble_order():
    """Paired scaling dominates with zero violations; mixed designs do not order."""
    start = time.perf_counter()
    failures = []
    base = lgc.ensemble_from_sampler(lgc.GaussianEntries(2, 2, scale=1.0), 10_000, seed=10)
    double = lgc.ensemble_from_sampler(lgc.GaussianEntries(2, 2, scale=2.0), 10_000, seed=10)
    if not np.allclose(double.samples, 2.0 * base.samples):
        failures.append(("pairing broken",))
    decision = lgc.ensemble_order(double, base)
    if not (decision.ordered and decision.direction == "first"):
        failures.append(("paired order", decision.direction))
    if decision.max_violation != 0.0:
        failures.append(("paired violations", decision.max_violation))

    spread = lgc.ensemble_from_sampler(lgc.HaarRotated(np.diag([2.0, 0.5])), 10_000, seed=11)
    flat = lgc.ensemble_from_sampler(lgc.HaarRotated(np.diag([1.0, 1.0])), 10_000, seed=12)
    mixed = lgc.ensemble_order(spread, flat)
    if mixed.ordered:
        failures.append(("mixed designs ordered",))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    report(10, ok, f"10^4 paired samples, violations={decision.max_violation}, {elapsed:.2f}s")
