import itertools
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chanorder import dmc
from chanorder.dmc import (
    ENUMERATION_CAP,
    DeterministicPair,
    EnumerationTooLargeError,
    StochasticMatrix,
    best_error_probability,
    bsc,
    degradation_products,
    degrade,
    equivalent,
    includes,
)
from conftest import check_certificate, random_degradation, random_stochastic

KNOWN_DEFECTS = Path(__file__).resolve().parent / "known_simplex_defects.json"


def bsc_rule(p, q):
    # Analytic inclusion rule confirmed against brute force in the
    # acceptance suite.
    return abs(1.0 - 2.0 * q) <= abs(1.0 - 2.0 * p)


class TestStochasticMatrix:
    def test_row_sum_enforced(self):
        with pytest.raises(ValueError, match="sums"):
            StochasticMatrix([[0.5, 0.4], [0.5, 0.5]])

    def test_entry_range_enforced(self):
        with pytest.raises(ValueError):
            StochasticMatrix([[1.5, -0.5]])

    def test_tiny_negatives_clamped(self):
        m = StochasticMatrix([[1.0 + 5e-13, -5e-13]])
        assert m.entries.min() >= 0.0
        assert m.entries.max() <= 1.0

    def test_json_round_trip(self):
        channel = bsc(0.3)
        again = dmc.from_json_dict(dmc.to_json_dict(channel))
        assert np.array_equal(channel.entries, again.entries)

    @pytest.mark.parametrize(
        "parse, doc, what",
        [
            (dmc.from_json_dict, {"type": "dmc", "matrix": [["0.25", "0.75"], [True, False]]}, "matrix"),
            (dmc.from_json_dict, {"type": "dmc", "matrix": [[True, False], [False, True]]}, "matrix"),
            (dmc.witness_from_json_dict,
             {"weights": ["1.0"], "pairs": [{"input_map": [0, 1], "output_map": [0, 1]}]},
             "witness weights"),
        ],
        ids=["string-matrix", "bool-matrix", "string-weights"],
    )
    def test_non_number_document_arrays_rejected(self, parse, doc, what):
        with pytest.raises(TypeError, match=f"{what} must hold only numbers"):
            parse(doc)


class TestIncludes:
    def test_self_inclusion(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            k = random_stochastic(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            decision = includes(k, k)
            assert decision.included
            check_certificate(k, k, decision)

    def test_constant_row_channel(self):
        k = StochasticMatrix([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
        constant = StochasticMatrix([k.entries[0], k.entries[0]])
        decision = includes(k, constant)
        assert decision.included

    def test_bsc_pair(self):
        assert includes(bsc(0.1), bsc(0.2)).included
        assert not includes(bsc(0.2), bsc(0.1)).included

    def test_bsc_rule_spot_checks(self):
        for p, q in [(0.05, 0.3), (0.3, 0.05), (0.2, 0.2), (0.5, 0.1), (0.1, 0.5)]:
            assert includes(bsc(p), bsc(q)).included == bsc_rule(p, q)

    def test_witness_weights_sum_to_one(self):
        decision = includes(bsc(0.1), bsc(0.3))
        assert decision.included
        check_certificate(bsc(0.1), bsc(0.3), decision)

    def test_separator_beats_every_candidate(self):
        better, worse = bsc(0.2), bsc(0.05)
        decision = includes(better, worse)
        assert not decision.included
        check_certificate(better, worse, decision)

    def test_deterministic_decision(self):
        a = includes(bsc(0.1), bsc(0.3))
        b = includes(bsc(0.1), bsc(0.3))
        assert np.array_equal(a.witness.weights, b.witness.weights)
        assert a.witness.pairs == b.witness.pairs

    @pytest.mark.parametrize("n, cap", [(4, 1000), (8, ENUMERATION_CAP)],
                             ids=["4x4-cap-1000", "8x8-default-cap"])
    def test_cap_exceeded(self, n, cap):
        # n**n * n**n pairs, past the cap (65,536 at 4x4, 8**16 at 8x8): the
        # codebook separator still decides this random pair, and an included
        # pair still raises.  Only the 4x4 pairs can be enumerated.
        k = random_stochastic(np.random.default_rng(1), n, n)
        worse = random_stochastic(np.random.default_rng(2), n, n)
        decision = includes(k, worse, cap=cap)
        assert not decision.included and decision.margin > 0.0
        assert set(decision.separator.tolist()) == {0.0, 1.0}
        if n == 4:
            check_certificate(k, worse, decision)
        pairs, weights = random_degradation(np.random.default_rng(3), k, n, n)
        with pytest.raises(EnumerationTooLargeError, match="deterministic input/output pairs"):
            includes(k, degrade(k, pairs, weights, n_outputs=n), cap=cap)

    def test_cap_bounds_the_screens_codebooks_in_all(self, monkeypatch):
        # A 16x16 channel includes itself, so no codebook separator exists
        # and the pair count (16**32) is past any cap.  The screen scores at
        # most cap codebooks over every size and both channels before the
        # cap raises; bounded per size, it would score all 131,038 (sets of
        # M of 16 rows, M = 2, ..., 16, on both channels).
        k = random_stochastic(np.random.default_rng(16), 16, 16)
        scored = []
        kernel = dmc._best_codebook

        def counting(entries, size):
            scored.append(math.comb(len(entries), min(size, len(entries))))
            return kernel(entries, size)

        monkeypatch.setattr(dmc, "_best_codebook", counting)
        with pytest.raises(EnumerationTooLargeError, match="deterministic input/output pairs"):
            includes(k, k, cap=10**5)
        assert 0 < sum(scored) <= 10**5

    def test_transitivity_on_random_triples(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            a = random_stochastic(rng, 3, 3)
            pairs, weights = random_degradation(rng, a, 3, 3)
            b = degrade(a, pairs, weights, n_outputs=3)
            pairs2, weights2 = random_degradation(rng, b, 2, 3)
            c = degrade(b, pairs2, weights2, n_outputs=3)
            assert includes(a, b).included
            assert includes(b, c).included
            assert includes(a, c).included

    def test_cap_threshold_is_the_pair_count(self):
        # 2**2 * 2**2 = 16 deterministic pairs for two binary channels.
        assert includes(bsc(0.1), bsc(0.2), cap=16).included
        with pytest.raises(EnumerationTooLargeError, match="16 deterministic"):
            includes(bsc(0.1), bsc(0.2), cap=15)

    def test_separator_near_the_tolerance(self):
        # The hull is {(p, 1-p, p, 1-p)}: the worse channel is 2e-9 away in
        # the 1-norm, so it is not included, yet its best separator's margin
        # (3e-9) is below tolerance * ||h||_1 (6e-9).  No pair improves the
        # restricted problem, which decides it.
        better = StochasticMatrix([[1.0], [1.0]])
        worse = StochasticMatrix([[0.5, 0.5], [0.5 + 1e-9, 0.5 - 1e-9]])
        decision = includes(better, worse)
        assert not decision.included
        margin = check_certificate(better, worse, decision)
        assert decision.margin == pytest.approx(margin, abs=1e-15)

    @pytest.mark.parametrize("delta", [5e-10, 1e-9, 3e-9, 1e-8])
    @pytest.mark.parametrize(
        "better, rows",
        [([[0.4, 0.2, 0.4], [0.4, 0.2, 0.4]], np.full((4, 4), 0.25)),
         ([[0.45, 0.55]], np.tile([0.8, 0.2], (3, 1)))],
        ids=["repeated-rows", "one-input"],
    )
    def test_separator_on_a_degenerate_hull(self, better, rows, delta):
        # Every pair gives equal rows, and many pairs lie on the affine hull
        # of a few others.  Moving two rows of the worse channel by +-delta
        # leaves a margin near 4 * delta**2, far below the rounding of the
        # residual t - x.
        better = StochasticMatrix(better)
        rows = rows.copy()
        rows[0, :2] += (delta, -delta)
        rows[1, :2] -= (delta, -delta)
        worse = StochasticMatrix(rows)
        decision = includes(better, worse)
        assert not decision.included
        check_certificate(better, worse, decision)

    def test_tolerance_below_rounding(self):
        # A tolerance far below rounding: each decision is either certified
        # or refused as undecided, never another failure.
        for better, worse in _oracle_instances(count=80, seed=7):
            try:
                includes(better, worse, tolerance=1e-300)
            except ArithmeticError:
                pass

    @pytest.mark.parametrize("tolerance", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_tolerance_rejected(self, tolerance):
        # inf accepts any witness (the identity in bsc(0.3) replays at error
        # 0.3); 0 is below rounding, and -1 and nan fail every certificate
        # check.
        identity = StochasticMatrix(np.eye(2))
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            includes(bsc(0.3), identity, tolerance=tolerance)
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            equivalent(bsc(0.3), identity, tolerance=tolerance)

    def test_deterministic_on_4x4(self):
        rng = np.random.default_rng(44)
        k = random_stochastic(rng, 4, 4)
        pairs, weights = random_degradation(rng, k, 4, 4, max_pairs=6)
        worse = degrade(k, pairs, weights, n_outputs=4)
        a, b = includes(k, worse), includes(k, worse)
        assert a.included and b.included
        assert a.witness.pairs == b.witness.pairs
        assert np.array_equal(a.witness.weights, b.witness.weights)


def _oracle_instances(count=240, max_pairs=1024, seed=2024):
    """Seeded pairs of channels with 1-4 symbols per side that the full
    enumeration decides quickly: random channels, mixtures of deterministic
    pairs, mixtures with repeated rows, and mixtures nudged off the hull."""
    rng = np.random.default_rng(seed)
    instances = []
    while len(instances) < count:
        n1, m1, n2, m2 = (int(v) for v in rng.integers(1, 5, size=4))
        if n1**n2 * m2**m1 > max_pairs:
            continue
        better = random_stochastic(rng, n1, m1)
        kind = len(instances) % 4
        if kind == 0:
            instances.append((better, random_stochastic(rng, n2, m2)))
            continue
        pairs, weights = random_degradation(rng, better, n2, m2)
        if kind == 2:
            # Every pair feeds the last worse input like the first one.
            pairs = [DeterministicPair(p.input_map[:-1] + p.input_map[:1], p.output_map)
                     for p in pairs]
        worse = degrade(better, pairs, weights, n_outputs=m2)
        if kind == 3:
            nudge = (1e-3, 1e-6, 1e-8)[len(instances) % 3]
            noise = random_stochastic(rng, n2, m2)
            worse = StochasticMatrix((1.0 - nudge) * worse.entries + nudge * noise.entries)
        instances.append((better, worse))
    return instances


def _l1_distance(candidates, target):
    """Least 1-norm distance from ``target`` to the hull of the candidate rows,
    by HiGHS: minimise sum(s+ + s-) subject to A g + s+ - s- = target,
    sum(g) = 1 and g, s+, s- >= 0."""
    optimize = pytest.importorskip("scipy.optimize")
    count, dim = candidates.shape
    cost = np.concatenate([np.zeros(count), np.ones(2 * dim)])
    equalities = np.block([[candidates.T, np.eye(dim), -np.eye(dim)],
                           [np.ones((1, count)), np.zeros((1, 2 * dim))]])
    result = optimize.linprog(
        cost, A_eq=equalities, b_eq=np.append(target, 1.0), bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert result.status == 0, result.message
    return result.fun


def test_decisions_match_full_enumeration():
    """Every certificate is checked against the full enumeration of
    deterministic pairs: witnesses replay, and separators strictly beat every
    candidate."""
    decided = {True: 0, False: 0}
    for better, worse in _oracle_instances():
        decision = includes(better, worse)
        decided[decision.included] += 1
        check_certificate(better, worse, decision)
    assert min(decided.values()) >= 40


def test_decisions_match_scipy_l1_distance():
    """An oracle sharing no solver code with the library: the worse channel is
    included exactly when its 1-norm distance to the hull is within 1e-9."""
    for index, (better, worse) in enumerate(_oracle_instances()):
        candidates, _ = degradation_products(better, worse.entries.shape)
        distance = _l1_distance(candidates, worse.entries.ravel())
        assert includes(better, worse).included == (distance <= 1e-9), (index, distance)


def _known_defects():
    with open(KNOWN_DEFECTS, encoding="utf-8") as handle:
        return json.load(handle)["instances"]


@pytest.mark.parametrize("instance", _known_defects(), ids=lambda i: i["found"])
def test_known_simplex_defects_decide_included(instance):
    better = StochasticMatrix(np.asarray(instance["better"]))
    worse = StochasticMatrix(np.asarray(instance["worse"]))
    decision = includes(better, worse)
    assert decision.included
    check_certificate(better, worse, decision)


def _doubled_weights(pairs, weights, separator, best):
    return pairs, 2.0 * weights, separator, best


def _first_column_only(pairs, weights, separator, best):
    weights = np.zeros_like(weights)
    weights[0] = 1.0
    return pairs, weights, separator, best


def _negated_separator(pairs, weights, separator, best):
    return pairs, weights, -separator, best


def _negated_codebook_separator(separator, best):
    return -separator, best


def _no_codebook_separator(*args):
    return None, None


@pytest.mark.parametrize(
    "stage, corrupt, better, worse",
    [
        ("_nearest_point", _doubled_weights, bsc(0.1), bsc(0.3)),
        ("_nearest_point", _first_column_only, bsc(0.1), bsc(0.3)),
        ("_nearest_point", _negated_separator, bsc(0.2), bsc(0.05)),
        ("_codebook_separator", _negated_codebook_separator, bsc(0.2), bsc(0.05)),
    ],
    ids=["weights-sum", "replay", "separator", "codebook-separator"],
)
def test_corrupted_certificate_raises(monkeypatch, stage, corrupt, better, worse):
    if stage == "_nearest_point":
        # A codebook separator would decide bsc(0.2) against bsc(0.05); the
        # screen declines here so that Wolfe's separator is the one checked.
        monkeypatch.setattr(dmc, "_codebook_separator", _no_codebook_separator)
    search = getattr(dmc, stage)
    monkeypatch.setattr(dmc, stage, lambda *args: corrupt(*search(*args)))
    with pytest.raises(ArithmeticError):
        includes(better, worse)


def _recording(screen, screened):
    """``screen`` that appends to ``screened`` whether it found a separator."""

    def record(*args):
        separator, best = screen(*args)
        screened.append(separator is not None)
        return separator, best

    return record


def test_codebook_separators_decide_like_wolfe(monkeypatch):
    """The codebook screen changes no decision, and every separator it emits
    beats the full enumeration of pairs by the margin it reports."""
    instances = _oracle_instances(count=300, max_pairs=4**8, seed=2718)
    instances += [(StochasticMatrix(np.vstack([b.entries[:-1], b.entries[:1]])), w)
                  for b, w in instances]
    screened = []
    with monkeypatch.context() as patch:
        patch.setattr(dmc, "_codebook_separator", _recording(dmc._codebook_separator, screened))
        decisions = [includes(better, worse, cap=4**8) for better, worse in instances]
    monkeypatch.setattr(dmc, "_codebook_separator", _no_codebook_separator)
    for index, ((better, worse), decision) in enumerate(zip(instances, decisions)):
        assert decision.included == includes(better, worse, cap=4**8).included, index
        if screened[index]:
            check_certificate(better, worse, decision, cap=4**8)
    not_included = sum(not decision.included for decision in decisions)
    assert 100 <= sum(screened) < not_included, (sum(screened), not_included)


@pytest.mark.parametrize("delta", [5e-15, 7e-15, 7.5e-15, 1e-14])
def test_codebook_separator_at_the_rounding_floor(monkeypatch, delta):
    # The best 2-codebooks differ by 2 * delta, against a floor of
    # _ROUNDING * 4 = 1.42e-14 with the tolerance far below it: the screen
    # declines the first two pairs and certifies the last two, and Wolfe's
    # search answers the same.
    better, worse = bsc(0.2), bsc(0.2 - delta)
    screened = []
    with monkeypatch.context() as patch:
        patch.setattr(dmc, "_codebook_separator", _recording(dmc._codebook_separator, screened))
        decision = includes(better, worse, tolerance=1e-16)
    monkeypatch.setattr(dmc, "_codebook_separator", _no_codebook_separator)
    assert screened == [delta > 7e-15]
    assert not decision.included and decision.margin > 0.0
    assert not includes(better, worse, tolerance=1e-16).included


def _rebuilt_best_pair(k, h, n2, m2):
    """Pricing as it was before the table: every map's product is rebuilt at
    each call."""
    n1, m1 = k.shape
    hm = h.reshape(n2, m2)
    if m2**m1 <= n1**n2:
        output_maps = dmc._maps(m1, m2)
        scores = dmc._collapsed(k, output_maps, m2) @ hm.T
        best = int(np.argmax(scores.max(axis=1).sum(axis=1)))
        inputs = scores[best].argmax(axis=0)
        return DeterministicPair(tuple(inputs.tolist()), tuple(output_maps[best].tolist()))
    input_maps = dmc._maps(n2, n1)
    scores = np.swapaxes(k[input_maps], 1, 2) @ hm
    best = int(np.argmax(scores.max(axis=2).sum(axis=1)))
    outputs = scores[best].argmax(axis=1)
    return DeterministicPair(tuple(input_maps[best].tolist()), tuple(outputs.tolist()))


_PRICING_SHAPES = [
    (2, 2, 2, 2, True),  # n1**n2 == m2**m1
    (4, 4, 4, 4, True),  # n1**n2 == m2**m1
    (4, 3, 4, 3, True),
    (3, 2, 2, 3, True),
    (2, 4, 3, 3, False),
    (3, 4, 2, 2, False),
    (4, 4, 3, 4, False),
    (4, 4, 4, 3, True),
    (5, 5, 3, 2, True),
    (5, 3, 2, 5, False),
]


@pytest.mark.parametrize("n1, m1, n2, m2, output_side", _PRICING_SHAPES)
def test_best_pair_matches_rebuilt_pricing(n1, m1, n2, m2, output_side):
    rng = np.random.default_rng([n1, m1, n2, m2])
    repeated = random_stochastic(rng, n1, m1).entries.copy()
    repeated[-1] = repeated[0]
    for better in (random_stochastic(rng, n1, m1), StochasticMatrix(repeated)):
        table = dmc._pricing_table(better.entries, n2, m2)
        assert table.output_side == output_side
        candidates, _ = degradation_products(better, (n2, m2))
        # Integer-valued and zero residuals make many pairs tie.
        residuals = [rng.standard_normal(n2 * m2) for _ in range(4)]
        residuals += [rng.integers(-2, 3, size=n2 * m2).astype(float) for _ in range(4)]
        residuals.append(np.zeros(n2 * m2))
        for h in residuals:
            best, argmaxes, column = dmc._best_pair(table, h)
            pair = dmc._table_pair(table, best, argmaxes)
            want = _rebuilt_best_pair(better.entries, h, n2, m2)
            assert pair == want, h
            assert column.tobytes() == want.apply(better, n_outputs=m2).ravel().tobytes(), h
            assert float(h @ column) >= float(np.max(candidates @ h)) - 1e-12, h


def _certificate(decision):
    if decision.included:
        witness = decision.witness
        return True, witness.pairs, witness.weights.tobytes(), witness.residual
    return False, decision.separator.tobytes(), decision.margin


def test_certificates_match_table_free_pricing(monkeypatch):
    """Pricing from the table gives, byte for byte, the certificates of
    pricing that rebuilds every product at each call."""
    rng = np.random.default_rng(1718)
    channel = random_stochastic(rng, 5, 5)
    pairs, weights = random_degradation(rng, channel, 5, 5, max_pairs=5)
    oracle = _oracle_instances(count=300, max_pairs=4**8, seed=1717)
    # A better channel with its first row repeated last makes pricing tie.
    oracle += [(StochasticMatrix(np.vstack([b.entries[:-1], b.entries[:1]])), w)
               for b, w in oracle[:100]]
    instances = [(better, worse, ENUMERATION_CAP) for better, worse in oracle]
    instances.append((channel, degrade(channel, pairs, weights, n_outputs=5), 5**10))
    priced = [_certificate(includes(better, worse, cap=cap)) for better, worse, cap in instances]

    def rebuilt(table, h):
        pair = _rebuilt_best_pair(table.k, h, table.n2, table.m2)
        chosen, other = ((pair.output_map, pair.input_map) if table.output_side
                         else (pair.input_map, pair.output_map))
        best = int(np.flatnonzero((table.maps == chosen).all(axis=1))[0])
        return best, np.array(other), pair.apply(StochasticMatrix(table.k), n_outputs=table.m2).ravel()

    monkeypatch.setattr(dmc, "_best_pair", rebuilt)
    for index, (better, worse, cap) in enumerate(instances):
        assert _certificate(includes(better, worse, cap=cap)) == priced[index], index
    assert {certificate[0] for certificate in priced} == {True, False}


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_pricing_in_chunks_matches_rebuilt_pricing(monkeypatch, chunk):
    """With a few maps per chunk, best pairs and ties straddle chunk edges:
    the lowest index still wins, and certificates stay byte for byte."""
    monkeypatch.setattr(dmc, "_PRICING_CHUNK", chunk)
    table = dmc._pricing_table(random_stochastic(np.random.default_rng(7), 4, 4).entries, 4, 4)
    sizes = [products.shape[-1] for products in table.products]
    assert sum(sizes) == 256 and sizes[:-1] == [chunk] * (len(sizes) - 1) and 0 < sizes[-1] <= chunk
    for shape in _PRICING_SHAPES:
        test_best_pair_matches_rebuilt_pricing(*shape)
    test_certificates_match_table_free_pricing(monkeypatch)


def test_included_mixture_past_the_default_cap_is_priced_in_default_chunks():
    """With the cap lifted, a 6x6 mixture is priced over its 6**6 = 46,656
    output maps in 12 chunks of the default size, and decided included."""
    rng = np.random.default_rng(20)
    better = random_stochastic(rng, 6, 6)
    pairs, weights = random_degradation(rng, better, 6, 6)
    worse = degrade(better, pairs, weights, n_outputs=6)
    table = dmc._pricing_table(better.entries, 6, 6)
    sizes = [products.shape[-1] for products in table.products]
    assert table.output_side and sizes == [dmc._PRICING_CHUNK] * 11 + [46_656 - 11 * dmc._PRICING_CHUNK]
    decision = includes(better, worse, cap=10**10)
    assert decision.included
    check_certificate(better, worse, decision)


class _MapsBuilt(Exception):
    pass


def _table_refused(entries):
    return rf"^enumeration too large: {entries} pricing table entries exceeds the cap of 134217728$"


@pytest.mark.parametrize("n1, m1, n2, m2, raised, match", [
    (7, 7, 7, 7, _MapsBuilt, None),  # 7**7 output maps of 7x7 products, 40.4 M entries
    (8, 8, 8, 8, EnumerationTooLargeError, _table_refused(8**8 * 8 * 8)),
    (8, 9, 8, 9, EnumerationTooLargeError, _table_refused(8**8 * 8 * 9)),  # input maps
], ids=["7x7-output-side", "8x8-output-side", "8x9-input-side"])
def test_pricing_table_entries_are_bounded_before_the_maps_are_built(monkeypatch, n1, m1, n2, m2,
                                                                     raised, match):
    def refuse(*args):
        raise _MapsBuilt

    monkeypatch.setattr(dmc, "_maps", refuse)
    k = random_stochastic(np.random.default_rng(7), n1, m1).entries
    with pytest.raises(raised, match=match):
        dmc._pricing_table(k, n2, m2)


def test_input_side_column_is_the_bytes_of_apply():
    """The input-side column is built from the table's ``R K`` and is, byte
    for byte, ``DeterministicPair.apply``'s ``R K T``."""
    rng = np.random.default_rng(1812)
    seen = set()
    for n1, m1, n2, m2 in ((4, 4, 3, 4), (3, 4, 2, 3), (2, 3, 3, 4), (3, 3, 2, 4)):
        repeated = random_stochastic(rng, n1, m1).entries.copy()
        repeated[-1] = repeated[0]
        for better in (random_stochastic(rng, n1, m1), StochasticMatrix(repeated)):
            table = dmc._pricing_table(better.entries, n2, m2)
            assert not table.output_side
            for _ in range(250):
                h = rng.standard_normal(n2 * m2) * rng.integers(1, 4, size=n2 * m2)
                best, argmaxes, column = dmc._best_pair(table, h)
                pair = dmc._table_pair(table, best, argmaxes)
                assert column.tobytes() == pair.apply(better, n_outputs=m2).ravel().tobytes(), h
                seen.add((n1, m1, n2, m2, pair))
    assert len(seen) > 500


def _summed_in_order(k, input_map, output_map, m2, order):
    """``R K T`` of one pair by a plain loop: each bin starts at 0.0 and adds
    ``K[i, j]`` over the better outputs j in ``order``."""
    out = [[0.0] * m2 for _ in input_map]
    for w, i in enumerate(input_map):
        for j in order:
            out[w][output_map[j]] += float(k[i, j])
    return np.array(out)


def test_products_add_each_bin_in_better_output_order():
    """The K T kernel, in both layouts, and the input-side pricing column are,
    byte for byte, a loop that adds each bin in better-output order.  Rows
    of 1 and 1e-16 tell the orders apart: (1 + 1e-16) + 1e-16 rounds to 1,
    and 1e-16 + (1e-16 + 1) does not."""
    rng = np.random.default_rng(3412)
    reversed_differs = 0
    for n1, m1, n2, m2 in ((4, 4, 4, 2), (4, 3, 3, 4), (3, 5, 2, 2), (2, 6, 3, 3)):
        k = rng.choice([1.0, 0.5, 1e-16, 3e-17], size=(n1, m1))
        output_maps = dmc._maps(m1, m2)
        want = np.array([_summed_in_order(k, range(n1), t, m2, range(m1)) for t in output_maps])
        assert dmc._collapsed(k, output_maps, m2).tobytes() == want.tobytes()
        assert dmc._collapsed(k, output_maps, m2, maps_last=True).tobytes() == want.T.copy().tobytes()
        backwards = [_summed_in_order(k, range(n1), t, m2, range(m1)[::-1]) for t in output_maps]
        reversed_differs += np.array(backwards).tobytes() != want.tobytes()
        table = dmc._pricing_table(k, n2, m2)
        for _ in range(50):
            best, argmaxes, column = dmc._best_pair(table, rng.standard_normal(n2 * m2))
            pair = dmc._table_pair(table, best, argmaxes)
            want = _summed_in_order(k, pair.input_map, pair.output_map, m2, range(m1))
            assert column.tobytes() == want.ravel().tobytes(), (pair, table.output_side)
    assert reversed_differs == 4


def _fresh_qr_step(columns, h):
    """The corral's affine step from a fresh QR of its differences, as
    ``_nearest_point`` took it before it kept a factor."""
    if len(columns) == 1:
        return np.zeros(1), h
    q, r = np.linalg.qr((columns[1:] - columns[0]).T)
    shift = np.linalg.solve(r, q.T @ h)
    residual = h - q @ (q.T @ h)
    residual = residual - q @ (q.T @ residual)
    return np.concatenate([[-shift.sum()], shift]), residual


class _FreshQrCorral(dmc._Corral):
    """A corral that takes every step from a fresh QR, ignoring the kept factor."""

    def affine_step(self, h):
        return _fresh_qr_step(self.columns[:self.size], h)


class _CheckedCorral(dmc._Corral):
    """A corral that checks its kept factor against a fresh QR after every
    add and drop, and each step against ``_fresh_qr_step``."""

    events = {"add": 0, "drop": 0, "anchor drop": 0}

    def _check_factor(self):
        k = self.size
        q, coords = self.basis[:k - 1], self.coords[:k, :k - 1]
        assert np.abs(q @ q.T - np.eye(k - 1)).max() <= 1e-12
        columns = self.columns[:k]
        if k > 1:
            fresh, _ = np.linalg.qr((columns[1:] - columns[0]).T)
            assert np.abs(fresh - q.T @ (q @ fresh)).max() <= 1e-12
        assert np.abs(columns.T @ coords - q.T).max() <= 1e-12 * max(1.0, np.abs(coords).max())
        assert np.abs(coords.sum(axis=0)).max() <= 1e-12 * max(1.0, np.abs(coords).max())

    def add(self, pair, column, step):
        super().add(pair, column, step)
        self.events["add"] += 1
        self._check_factor()

    def drop(self, index):
        super().drop(index)
        self.events["drop"] += 1
        self.events["anchor drop"] += index == 0
        self._check_factor()

    def affine_step(self, h):
        move, residual = super().affine_step(h)
        want_move, want_residual = _fresh_qr_step(self.columns[:self.size], h)
        scale = float(np.linalg.norm(h))
        assert np.abs(residual - want_residual).max() <= 1e-12 * scale
        # A weight is a distance over the differences' scale: their least
        # singular value turns a weight error into a distance error.
        differences = self.columns[1:self.size] - self.columns[0]
        if len(differences):
            least = float(np.linalg.svd(differences, compute_uv=False)[-1])
            assert np.abs(move - want_move).max() * least <= 1e-12 * scale
        return move, residual


def _factor_instances(count, seed):
    """Oracle instances, the first third again with a better channel whose
    last row repeats its first, and mixtures nudged 1e-11 to 1e-3 off the
    hull."""
    instances = _oracle_instances(count=count, max_pairs=4**8, seed=seed)
    instances += [(StochasticMatrix(np.vstack([b.entries[:-1], b.entries[:1]])), w)
                  for b, w in instances[:count // 3]]
    rng = np.random.default_rng(seed)
    for exponent in np.linspace(-11.0, -3.0, count // 3):
        better = random_stochastic(rng, 4, 4)
        n2, m2 = (int(v) for v in rng.integers(2, 5, size=2))
        pairs, weights = random_degradation(rng, better, n2, m2, max_pairs=6)
        worse = degrade(better, pairs, weights, n_outputs=m2).entries
        noise = random_stochastic(rng, n2, m2).entries
        nudge = 10.0**exponent
        instances.append((better, StochasticMatrix((1.0 - nudge) * worse + nudge * noise)))
    return instances


def test_kept_factor_tracks_a_fresh_qr(monkeypatch):
    """Along real decisions, after every add and drop, the kept basis is
    orthonormal and spans what a fresh QR spans, and every step's weight
    change and residual match the fresh QR's."""
    monkeypatch.setattr(_CheckedCorral, "events", dict.fromkeys(_CheckedCorral.events, 0))
    monkeypatch.setattr(dmc, "_Corral", _CheckedCorral)
    for better, worse in _factor_instances(count=150, seed=1813):
        includes(better, worse, cap=4**8)
    events = _CheckedCorral.events
    assert events["add"] > 300 and events["drop"] > 20 and events["anchor drop"] > 0, events


def test_kept_factor_decides_like_a_fresh_qr(monkeypatch):
    """Seeded parity with the corral that refactors on every step: the same
    decision on every instance, and every certificate checks against the
    full enumeration.  The kept factor never calls a QR or a solve."""
    instances = _factor_instances(count=300, seed=1814)

    def refuse(*args, **kwargs):
        raise AssertionError("the kept factor needs no QR and no solve")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "qr", refuse)
        patch.setattr(np.linalg, "solve", refuse)
        kept = [includes(better, worse, cap=4**8) for better, worse in instances]
    monkeypatch.setattr(dmc, "_Corral", _FreshQrCorral)
    decided = {True: 0, False: 0}
    for index, ((better, worse), decision) in enumerate(zip(instances, kept)):
        assert decision.included == includes(better, worse, cap=4**8).included, index
        decided[decision.included] += 1
        check_certificate(better, worse, decision, cap=4**8)
    assert min(decided.values()) >= 60, decided


def test_degradation_products_structure():
    # Repeated rows make distinct pairs give equal products; all are kept.
    repeated = StochasticMatrix([[0.6, 0.3, 0.1], [0.6, 0.3, 0.1], [0.2, 0.2, 0.6]])
    rng = np.random.default_rng(649)
    # Then one input or one output on either side.
    cases = [(repeated, (2, 2))] + [
        (random_stochastic(rng, *shape), worse_shape)
        for shape, worse_shape in [((1, 3), (2, 2)), ((3, 1), (2, 2)), ((2, 3), (1, 2)), ((2, 3), (3, 1))]
    ]
    for better, (n2, m2) in cases:
        n1, m1 = better.entries.shape
        rows, (input_maps, output_maps) = degradation_products(better, (n2, m2))
        assert rows.flags.c_contiguous and rows.shape == (n1**n2 * m2**m1, n2 * m2)
        assert input_maps.tolist() == [list(m) for m in itertools.product(range(n1), repeat=n2)]
        assert output_maps.tolist() == [list(m) for m in itertools.product(range(m2), repeat=m1)]
        for r, row in enumerate(rows):
            t, i = divmod(r, len(input_maps))
            pair = DeterministicPair(tuple(input_maps[i].tolist()), tuple(output_maps[t].tolist()))
            assert np.array_equal(row, pair.apply(better, n_outputs=m2).ravel())
    rows, _ = degradation_products(repeated, (2, 2))
    assert len({row.tobytes() for row in rows}) < len(rows)


class TestHugeCounts:
    # A count longer than 4,096 bits is decided on its log2, and built only
    # when the cap is as long; the error names it by its powers.
    @pytest.mark.parametrize(("n_messages", "block_length", "name"),
                             [(10**6, 1, "2**1000000"), (2, 10**6, "2**2000000")])
    def test_codebooks(self, n_messages, block_length, name):
        message = rf"^enumeration too large: {re.escape(name)} codebooks"
        with pytest.raises(EnumerationTooLargeError, match=message) as raised:
            best_error_probability(bsc(0.1), n_messages, block_length)
        assert raised.value.count == name

    def test_pairs(self):
        # A 5000x2 channel of the 10x2 one's rows: no codebook separator,
        # and 10**5000 * 2**2 pairs.
        better = random_stochastic(np.random.default_rng(10), 10, 2)
        worse = StochasticMatrix(better.entries[np.arange(5000) % 10])
        with pytest.raises(EnumerationTooLargeError, match=r"^enumeration too large: 10\*\*5000 \* 2\*\*2 "):
            includes(better, worse)

    @pytest.mark.parametrize(("call", "name"), [
        (lambda: DeterministicPair((0, 1), (0, 1)).apply(bsc(0.1), n_outputs=10**5000),
         "2 * (16610-bit number) product entries"),
        (lambda: degradation_products(bsc(0.1), (2, 10**5000)),
         "2**2 * (16610-bit number)**2 deterministic input/output pairs"),
        (lambda: best_error_probability(bsc(0.1), 10**5000, 1), "2**(16610-bit number) codebooks"),
    ], ids=["product-entries", "pairs", "codebooks"])
    def test_a_number_past_the_printed_length_is_named_by_its_bits(self, call, name):
        # 10**5000 has more digits than str() converts.
        message = rf"^enumeration too large: {re.escape(name)} exceeds the cap of 1000000$"
        with pytest.raises(EnumerationTooLargeError, match=message):
            call()

    def test_a_cap_past_the_printed_length_is_compared_exactly(self):
        # A count of 5001 bits is built only because the cap is as long.
        dmc._check_count(((2, 5000),), 2**5000, "codebooks")
        with pytest.raises(EnumerationTooLargeError, match=r"^enumeration too large: 2\*\*5000 codebooks"):
            dmc._check_count(((2, 5000),), 2**5000 - 1, "codebooks")


class TestEquivalent:
    def test_row_permutation(self):
        k = random_stochastic(np.random.default_rng(5), 3, 3)
        permuted = StochasticMatrix(k.entries[[2, 0, 1]])
        assert equivalent(k, permuted)

    def test_column_permutation(self):
        k = random_stochastic(np.random.default_rng(6), 3, 3)
        permuted = StochasticMatrix(k.entries[:, [1, 2, 0]])
        assert equivalent(k, permuted)

    def test_bsc_pair_not_equivalent(self):
        assert not equivalent(bsc(0.1), bsc(0.2))


class TestDegrade:
    def test_identity_pair(self):
        k = bsc(0.3)
        pair = DeterministicPair((0, 1), (0, 1))
        result = degrade(k, [pair], [1.0])
        assert np.array_equal(result.entries, k.entries)

    def test_uniform_mix_of_identity_and_flip(self):
        identity_channel = StochasticMatrix(np.eye(2))
        pairs = [DeterministicPair((0, 1), (0, 1)), DeterministicPair((0, 1), (1, 0))]
        result = degrade(identity_channel, pairs, [0.5, 0.5])
        assert np.allclose(result.entries, bsc(0.5).entries)

    def test_round_trip_inclusion(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            k = random_stochastic(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            n2, m2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            pairs, weights = random_degradation(rng, k, n2, m2)
            degraded = degrade(k, pairs, weights, n_outputs=m2)
            assert includes(k, degraded).included

    def test_weight_validation(self):
        k = bsc(0.2)
        pair = DeterministicPair((0, 1), (0, 1))
        with pytest.raises(ValueError, match="sum"):
            degrade(k, [pair], [0.4])
        with pytest.raises(ValueError, match="nonnegative"):
            degrade(k, [pair, pair], [1.5, -0.5])

    @pytest.mark.parametrize("weights", [[np.nan], [np.nan, 1.0], [np.inf, 0.0]], ids=["nan", "nan-one", "inf"])
    def test_non_finite_weights_rejected(self, weights):
        pairs = [DeterministicPair((0, 1), (0, 1))] * len(weights)
        with pytest.raises(ValueError, match="^weights must be finite$"):
            degrade(bsc(0.2), pairs, weights)

    def test_witness_json_round_trip(self):
        decision = includes(bsc(0.1), bsc(0.3))
        doc = dmc.witness_to_json_dict(decision.witness)
        witness = dmc.witness_from_json_dict(doc)
        check_certificate(bsc(0.1), bsc(0.3), dmc.InclusionDecision(True, witness=witness))

    @pytest.mark.parametrize(
        "input_map, output_map",
        [((0.7, 1.2), (0, 1)), ((0, 1), (True, False)), ((0, 1), ("0", "1"))],
        ids=["float", "bool", "string"],
    )
    def test_non_integer_map_entries_rejected(self, input_map, output_map):
        with pytest.raises(ValueError, match="integer indices"):
            DeterministicPair(input_map, output_map)

    def test_numpy_integer_map_entries_accepted(self):
        pair = DeterministicPair(tuple(np.arange(2)), (np.uint8(1), np.int64(0)))
        assert pair.input_map == (0, 1) and pair.output_map == (1, 0)
        assert all(type(v) is int for v in (*pair.input_map, *pair.output_map))

    @pytest.mark.parametrize("n_outputs", [2.5, 2.0, True, "2"], ids=["float", "whole-float", "bool", "string"])
    def test_non_integer_n_outputs_rejected(self, n_outputs):
        pair = DeterministicPair((0, 1), (0, 1))
        with pytest.raises(ValueError, match="n_outputs must be an integer"):
            degrade(bsc(0.2), [pair], [1.0], n_outputs=n_outputs)
        with pytest.raises(ValueError, match="n_outputs must be an integer"):
            pair.apply(bsc(0.2), n_outputs=n_outputs)

    def test_numpy_integer_n_outputs_accepted(self):
        pair = DeterministicPair((0, 1), (0, 1))
        result = degrade(bsc(0.2), [pair], [1.0], n_outputs=np.int64(3))
        assert result.entries.shape == (2, 3)
        raw = pair.apply(bsc(0.2), n_outputs=np.int64(3))
        assert raw.tobytes() == pair.apply(bsc(0.2), n_outputs=3).tobytes()


_IDENTITY, _FLIP = DeterministicPair((0, 1), (0, 1)), DeterministicPair((0, 1), (1, 0))


class TestPairMaps:
    # One check of a pair sequence against a channel and a degraded
    # alphabet serves both DeterministicPair.apply and degrade.
    @pytest.mark.parametrize("pair, n_outputs, message", [
        (DeterministicPair((0, 2), (0, 1)), None, "input_map addresses a missing channel input"),
        (DeterministicPair((0, 1), (0, 1, 0)), None, "output_map must be total on the channel outputs"),
        (DeterministicPair((0, 1), (0, 2)), 2, "output_map addresses a missing degraded output"),
    ], ids=["input", "total", "output"])
    def test_apply_and_degrade_refuse_a_map_that_misses(self, pair, n_outputs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            pair.apply(bsc(0.1), n_outputs=n_outputs)
        with pytest.raises(ValueError, match=f"^{message}$"):
            degrade(bsc(0.1), [pair], [1.0], n_outputs=n_outputs)
        # A pair of zero weight adds nothing, but its maps must fit too.
        with pytest.raises(ValueError, match=f"^{message}$"):
            degrade(bsc(0.1), [_IDENTITY, pair], [1.0, 0.0], n_outputs=n_outputs)

    def test_input_maps_share_one_domain(self):
        with pytest.raises(ValueError, match="^all input maps must share one domain size$"):
            degrade(bsc(0.1), [_IDENTITY, DeterministicPair((0,), (0, 1))], [0.5, 0.5])

    def test_zero_weight_pairs_change_no_bit(self):
        rng = np.random.default_rng(31)
        k = random_stochastic(rng, 3, 3)
        pairs, weights = random_degradation(rng, k, 3, 3)
        extra, _ = random_degradation(rng, k, 3, 3, max_pairs=1)
        want = degrade(k, pairs, weights, n_outputs=3).entries.tobytes()
        for padded, padded_weights in (([*pairs, *extra], [*weights, 0.0]),
                                       ([*extra, *pairs], [0.0, *weights])):
            assert degrade(k, padded, padded_weights, n_outputs=3).entries.tobytes() == want

    @pytest.mark.parametrize("label, n_outputs", [
        (2**63, None), (2**63 - 2, None), (10**8, None), (1, 10**8), (1, 500_001),
    ], ids=["2**63", "2**63-2", "10**8", "given-10**8", "given-one-past"])
    def test_the_degraded_alphabet_is_bounded_before_allocation(self, label, n_outputs):
        pair = DeterministicPair((0, 1), (0, label))
        message = r"^enumeration too large: \d+ product entries exceeds the cap of 1000000$"
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationTooLargeError, match=message):
                pair.apply(bsc(0.1), n_outputs=n_outputs)
            with pytest.raises(EnumerationTooLargeError, match=message):
                degrade(bsc(0.1), [pair], [1.0], n_outputs=n_outputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_the_bound_counts_the_product_block(self):
        # 1 pair x 2 inputs x 500,000 outputs is the cap's 1,000,000 entries.
        raw = _IDENTITY.apply(bsc(0.1), n_outputs=500_000)
        assert raw.shape == (2, 500_000) and raw[:, :2].tobytes() == bsc(0.1).entries.tobytes()
        assert not raw[:, 2:].any()
        with pytest.raises(EnumerationTooLargeError, match="^enumeration too large: 1000004 "):
            degrade(bsc(0.1), [_IDENTITY, _FLIP], [0.5, 0.5], n_outputs=250_001)

    @pytest.mark.parametrize("low", [-1e-12, float(np.nextafter(-1e-12, 0.0))], ids=["low", "low+ulp"])
    def test_weights_in_range_are_clipped_then_renormalized(self, low):
        k = random_stochastic(np.random.default_rng(32), 2, 2)
        got = degrade(k, [_IDENTITY, _FLIP], [low, 1.0 - low])
        assert got.entries.tobytes() == degrade(k, [_IDENTITY, _FLIP], [0.0, 1.0]).entries.tobytes()
        below = float(np.nextafter(-1e-12, -1.0))
        with pytest.raises(ValueError, match="^weights must be nonnegative$"):
            degrade(k, [_IDENTITY, _FLIP], [below, 1.0 - below])


class TestBestErrorProbability:
    def test_noiseless(self):
        assert best_error_probability(StochasticMatrix(np.eye(2)), 2, 1) == 0.0

    def test_bsc_single_use(self):
        assert best_error_probability(bsc(0.1), 2, 1) == pytest.approx(0.1, abs=1e-12)

    def test_bsc_repetition(self):
        # Exhaustive search must match the repetition-code value
        # 3 p^2 (1-p) + p^3 for one crossing of p.
        p = 0.1
        expected = 3 * p**2 * (1 - p) + p**3
        assert best_error_probability(bsc(p), 2, 3) == pytest.approx(expected, abs=1e-12)

    def test_monotone_under_degradation(self):
        rng = np.random.default_rng(21)
        a = random_stochastic(rng, 3, 3)
        pairs, weights = random_degradation(rng, a, 3, 3)
        b = degrade(a, pairs, weights, n_outputs=3)
        for block in (1, 2):
            assert best_error_probability(a, 2, block) <= best_error_probability(b, 2, block) + 1e-12

    @pytest.mark.parametrize(
        "n_messages, block_length, name",
        [(2.7, 1, "n_messages"), (2, 1.9, "block_length"), (True, 1, "n_messages"),
         (2, 1.0, "block_length")],
        ids=["float-messages", "float-length", "bool-messages", "whole-float-length"],
    )
    def test_non_integer_arguments_rejected(self, n_messages, block_length, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            best_error_probability(bsc(0.1), n_messages, block_length)

    def test_numpy_integer_arguments_accepted(self):
        value = best_error_probability(bsc(0.1), np.int32(2), np.uint8(1))
        assert value == best_error_probability(bsc(0.1), 2, 1)

    def test_cap(self):
        with pytest.raises(EnumerationTooLargeError, match="codebooks"):
            best_error_probability(bsc(0.1), 8, 8)

    def test_cap_bounds_the_extension_before_it_is_built(self):
        # 1 message of length 3 on the BSC: 8 codebooks, and (2 * 2)**3 = 64
        # extension entries.
        assert best_error_probability(bsc(0.1), 1, 3, cap=64) >= 0.0
        with pytest.raises(EnumerationTooLargeError, match="^enumeration too large: 64 extension entries"):
            best_error_probability(bsc(0.1), 1, 3, cap=63)
        wide = StochasticMatrix(np.full((2, 100), 0.01))
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationTooLargeError, match="1600000000 extension entries"):
                best_error_probability(wide, 1, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_cap_counts_ordered_codebooks(self):
        # 4 sequences, 3 messages: 20 multisets but 64 ordered codebooks.
        assert best_error_probability(bsc(0.1), 3, 2, cap=64) >= 0.0
        with pytest.raises(EnumerationTooLargeError, match="64 codebooks"):
            best_error_probability(bsc(0.1), 3, 2, cap=63)

    def test_matches_the_chunked_enumeration_bit_for_bit(self):
        def chunked(channel, n_messages, block_length):
            # The enumeration the shared codebook kernel replaced.
            extension = channel.entries
            for _ in range(block_length - 1):
                extension = np.kron(extension, channel.entries)
            best = 0.0
            codebooks = itertools.combinations_with_replacement(range(len(extension)), n_messages)
            while chunk := list(itertools.islice(codebooks, 4096)):
                best = max(best, float(extension[np.asarray(chunk)].max(axis=1).sum(axis=1).max()))
            return float(min(1.0, max(0.0, 1.0 - best / n_messages)))

        rng = np.random.default_rng(4096)
        # 25 sequences and 4 messages make 20,475 codebooks, past one chunk.
        cases = [(random_stochastic(rng, 5, 3), 4, 2)]
        for _ in range(24):
            channel = random_stochastic(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            cases += [(channel, n_messages, block_length)
                      for n_messages in range(1, 5) for block_length in (1, 2)]
        for channel, n_messages, block_length in cases:
            want = chunked(channel, n_messages, block_length)
            assert best_error_probability(channel, n_messages, block_length) == want

    def test_matches_every_ordered_codebook(self):
        def reference(channel, n_messages, block_length):
            extension = channel.entries
            for _ in range(block_length - 1):
                extension = np.kron(extension, channel.entries)
            best = 0.0
            for codebook in itertools.product(range(len(extension)), repeat=n_messages):
                best = max(best, float(extension[list(codebook)].max(axis=0).sum()))
            return float(min(1.0, max(0.0, 1.0 - best / n_messages)))

        rng = np.random.default_rng(77)
        channels = [bsc(0.1), StochasticMatrix(np.eye(3)), StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])]
        channels += [random_stochastic(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
                     for _ in range(12)]
        for channel in channels:
            for n_messages, block_length in ((1, 1), (2, 1), (3, 1), (2, 2), (3, 2)):
                if channel.n_inputs**(block_length * n_messages) > 1000:
                    continue
                assert best_error_probability(channel, n_messages, block_length) == reference(
                    channel, n_messages, block_length)
