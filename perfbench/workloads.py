"""The benchmark's three workloads: seeded inputs, the query each input runs,
and the check each output gets.

Inputs are made by this file from ``(seed, block index)`` with numpy only,
so the program under test receives nothing but the generated documents.
Queries come in blocks; the timed loop always finishes a block, so every
run executes the same mix of query kinds (see README.md for why each
workload exists).

``dmc-large``  inclusion decisions of a 4x4 channel against 3x4, 4x3 and
               4x4 channels, half of them built as included.
``families``   small queries from all four channel families, each starting
               from a parsed document dict.
``cli``        one ``chanorder`` process per query, over every subcommand.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from typing import NamedTuple

import numpy as np

from chanorder import cli, dmc, lgc, noise, phase

import checks

TOLERANCE = 1e-9

# The fixed suite of 4x4 decisions in ``dmc-large``: this many pairs of one
# included and one random worse channel, all of them in every block.  The
# included channel of the last pair has repeated rows.
_DMC_SUITE_SEED = 20210506
_DMC_SUITE_PAIRS = 6

# Every dmc pair outside that 4x4 suite comes from a fixed suite per shape
# and kind (an included mixture or two random channels), the same for every
# seed; the seed picks the members.  On drawn pairs ``dmc.includes`` fails
# now and then: 3 of 200 3x3->4x4 included mixtures raised LinAlgError, of
# 120 4x4->3x4 ones one returned weights summing to 14, of 120 4x4->4x3
# ones one stopped with "phase-1 simplex did not converge", and a random
# 3x4 channel that happened to be included in its random 4x4 one came back
# with weights summing to 1.17.  Every query of a run must succeed, so a
# suite is the first _SUITE_SIZE draws of its shape and kind that are
# decided correctly; the draws that are not are listed here and kept, with
# the other failing instances, in known_defects.json, which every run
# decides again.
_SUITE_SEED = 20210507
_SUITE_SIZE = 8
_SUITE_DRAWS_THAT_FAIL = {((3, 3, 4, 4), True): (1,)}

# What the ``chanorder`` console script runs (``chanorder.cli:main``).
CLI_ENTRY = "import sys; from chanorder.cli import main; sys.exit(main())"


class Query(NamedTuple):
    kind: str
    doc: dict


def _rng(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(index), int(stream)])


# ---------------------------------------------------------------------------
# input documents (numpy only)


def _dmc_doc(matrix) -> dict:
    return {"type": "dmc", "matrix": np.asarray(matrix, dtype=float).tolist()}


def _stochastic(rng, n: int, m: int) -> np.ndarray:
    return rng.dirichlet(np.ones(m), size=n)


def _input_map(rng, n1: int, n2: int, repeated: bool = False) -> tuple:
    """Input map of a deterministic pair: injective where the shapes allow,
    unless ``repeated``, which sends the first two worse inputs to the same
    better input so the mixture has two equal rows.

    Repeated rows make the dense simplex pivot degenerately and its cost
    swing with the draw (0.8-7 s per 4x4 decision, and once 19 s), so the
    other mixtures stay injective where the shapes allow and ``dmc-large``
    decides one fixed repeated-row pair in every run instead.
    """
    if repeated:
        mapping = rng.integers(0, n1, size=n2)
        mapping[1] = mapping[0]
        return tuple(int(i) for i in mapping)
    if n2 <= n1:
        return tuple(rng.permutation(n1)[:n2])
    return tuple(rng.integers(0, n1, size=n2))


def _included_worse(rng, better: np.ndarray, n2: int, m2: int, repeated: bool = False):
    """A mixture, drawn from ``rng``, of deterministic pairs of ``better``, through ``dmc.degrade``."""
    n1, m1 = better.shape
    k = int(rng.integers(2, 6))
    pairs = [dmc.DeterministicPair(_input_map(rng, n1, n2, repeated), tuple(rng.integers(0, m2, size=m1)))
             for _ in range(k)]
    weights = rng.dirichlet(np.ones(k))
    worse = dmc.degrade(dmc.StochasticMatrix(better), pairs, weights, n_outputs=m2)
    return worse.entries, pairs, weights


def suite_draws(shape, included: bool) -> list[int]:
    """The draws that make up the suite of ``shape`` = (n1, m1, n2, m2) and kind."""
    failing = _SUITE_DRAWS_THAT_FAIL.get((tuple(shape), included), ())
    return [d for d in range(_SUITE_SIZE + len(failing)) if d not in failing]


def _suite_rng(shape, draw: int, included: bool) -> np.random.Generator:
    n1, m1, n2, m2 = shape
    return _rng(_SUITE_SEED, draw, stream=1000 * n1 + 100 * m1 + 10 * n2 + m2 + (0 if included else 10_000))


def suite_mixture(shape, draw: int):
    """Better channel, included worse mixture, its pairs and weights of included suite draw ``draw``."""
    rng = _suite_rng(shape, draw, True)
    better = _stochastic(rng, shape[0], shape[1])
    return (better, *_included_worse(rng, better, shape[2], shape[3]))


def suite_pair(shape, draw: int, included: bool):
    """Better and worse channel of suite draw ``draw`` of the given kind."""
    if included:
        return suite_mixture(shape, draw)[:2]
    rng = _suite_rng(shape, draw, False)
    return _stochastic(rng, shape[0], shape[1]), _stochastic(rng, shape[2], shape[3])


def _suite_pick(rng, shape, included: bool) -> int:
    draws = suite_draws(shape, included)
    return draws[int(rng.integers(len(draws)))]


def _dmc_pair_query(better, worse, included: bool, error_probability=None) -> Query:
    return Query("dmc", {
        "better": _dmc_doc(better),
        "worse": _dmc_doc(worse),
        "included": True if included else None,
        "error_probability": error_probability if included else None,
    })


def _dmc_query(rng, n1, m1, n2, m2, included: bool, error_probability=None) -> Query:
    """A pair of the suite of its shape and kind, the member picked by ``rng``."""
    shape = (n1, m1, n2, m2)
    better, worse = suite_pair(shape, _suite_pick(rng, shape, included), included)
    return _dmc_pair_query(better, worse, included, error_probability)


_NOISE_GRID = (-10.0, 10.0, 2049)  # the library's default profile grid


def _bumps(rng, grid: np.ndarray) -> np.ndarray:
    density = np.zeros_like(grid)
    for _ in range(int(rng.integers(1, 4))):
        centre, width, weight = rng.uniform(-4, 4), rng.uniform(0.3, 2.0), rng.uniform(0.05, 0.5)
        density += weight * np.exp(-0.5 * ((grid - centre) / width) ** 2)
    return density


def _atoms(rng, count: int) -> list[list[float]]:
    locations = np.sort(rng.choice(np.arange(-40, 41), size=count, replace=False) / 8.0)
    return [[float(loc), float(rng.uniform(0.1, 1.0))] for loc in locations]


def _kfunction_doc(flag, density, atoms) -> dict:
    lo, hi, points = _NOISE_GRID
    return {
        "type": "kfunction",
        "flag": flag,
        "grid": {"min": lo, "max": hi, "points": points},
        "density": np.asarray(density, dtype=float).tolist(),
        "atoms": [list(a) for a in atoms],
    }


def _noise_pair(rng, flag: str, ordered: bool):
    """Two profile documents; when ``ordered``, the second is the first plus more noise."""
    grid = np.linspace(*_NOISE_GRID)
    density = _bumps(rng, grid)
    atoms = _atoms(rng, int(rng.integers(1, 4)))
    if ordered:
        more = density + _bumps(rng, grid)
        more_atoms = [[loc, mass + float(rng.uniform(0.0, 0.5))] for loc, mass in atoms]
    else:
        more = _bumps(rng, grid)
        more_atoms = _atoms(rng, int(rng.integers(1, 4)))
    return _kfunction_doc(flag, density, atoms), _kfunction_doc(flag, more, more_atoms)


def _noise_query(rng, flag: str, ordered: bool) -> Query:
    a, b = _noise_pair(rng, flag, ordered)
    return Query("noise", {
        "a": a,
        "b": b,
        "expect": noise.Relation.SECOND_WORSE.value if ordered else None,
        "zetas": [0.5, 1.0, 2.0] if flag == "noise_K" else [],
    })


# Phase cases with a known class.  Channels with both phases uniform are the
# null channel; point-phase degradations keep unit magnitude (undoable); a
# wrapped-Gaussian input phase shrinks every coefficient off the origin row
# of a channel that is supported there (strict).
_PHASE_CLASSES = ("strict", "undoable", "null_channel")


def _phase_query(rng, order: int, expected: str) -> Query:
    mean = float(rng.uniform(-1, 1))
    if expected == "null_channel":
        h, v = ["uniform"], ["uniform"]
    else:
        h = ["wgauss", mean, float(rng.uniform(0.05, 0.5))]
        v = ["wcauchy", float(rng.uniform(-1, 1)), float(rng.uniform(0.05, 0.5))]
    if expected == "undoable":
        into = ["point", float(rng.uniform(-3, 3))]
    else:
        into = ["wgauss", float(rng.uniform(-1, 1)), float(rng.uniform(0.1, 0.5))]
    out = ["point", float(rng.uniform(-3, 3))]
    return Query("phase", {"order": order, "h": h, "v": v, "in": into, "out": out, "expect": expected})


def _family(spec):
    kind, *params = spec
    return {
        "uniform": phase.UniformPhase,
        "point": phase.PointPhase,
        "wgauss": phase.WrappedGaussian,
        "wcauchy": phase.WrappedCauchy,
    }[kind](*params)


def _spd(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a @ a.T / n + np.eye(n)


def _orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _lgc_doc(h, sigma) -> dict:
    return {"type": "lgc", "H": np.asarray(h).tolist(), "Sigma": np.asarray(sigma).tolist()}


def _lgc_query(rng, n: int, included: bool) -> Query:
    h, sigma = rng.standard_normal((n, n)), _spd(rng, n)
    if included:
        worse = _lgc_doc(float(rng.uniform(0.3, 0.9)) * h, sigma)
    else:
        worse = _lgc_doc(rng.standard_normal((n, n)), _spd(rng, n))
    # Admissible processing: orthogonal B, and C with condition number <= 4.
    c = _orthogonal(rng, n) @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ _orthogonal(rng, n)
    return Query("lgc", {
        "better": _lgc_doc(h, sigma),
        "worse": worse,
        "included": True if included else None,
        "B": _orthogonal(rng, n).tolist(),
        "C": c.tolist(),
    })


def _ensemble_query(rng, n_samples: int) -> Query:
    base = np.diag(np.sort(rng.uniform(0.2, 3.0, size=4))[::-1])
    return Query("ensemble", {
        "base": _lgc_doc(base, np.eye(4)),
        "seed_a": int(rng.integers(0, 2**31)),
        "scale": float(rng.uniform(0.5, 1.5)),
        "seed_b": int(rng.integers(0, 2**31)),
        "n": n_samples,
    })


# ---------------------------------------------------------------------------
# query execution and checks, one pair per query kind


def run_dmc(doc):
    better = dmc.from_json_dict(doc["better"])
    worse = dmc.from_json_dict(doc["worse"])
    decision = dmc.includes(better, worse, tolerance=TOLERANCE)
    probabilities = None
    if doc["error_probability"] is not None:
        messages, block_length = doc["error_probability"]
        probabilities = (
            dmc.best_error_probability(better, messages, block_length),
            dmc.best_error_probability(worse, messages, block_length),
        )
    return better, worse, decision, probabilities


def check_dmc(doc, result):
    better, worse, decision, probabilities = result
    problems = checks.dmc_decision_problems(better, worse, decision, doc["included"], TOLERANCE)
    if probabilities is not None and decision.included:
        problems += checks.error_monotone_problems(*probabilities)
    return problems


KNOWN_DEFECTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "known_defects.json")


def known_defects() -> list[str]:
    """Decide every instance of known_defects.json again; one outcome line each.

    The instances belong to no workload and are not counted as queries:
    they show whether the defect the dmc suites step around is still there.
    """
    with open(KNOWN_DEFECTS, encoding="utf-8") as handle:
        instances = json.load(handle)["instances"]
    outcomes = []
    for instance in instances:
        doc = {"better": _dmc_doc(instance["better"]), "worse": _dmc_doc(instance["worse"]),
               "included": True, "error_probability": None}
        try:
            problems = check_dmc(doc, run_dmc(doc))
        except Exception as exc:
            problems = [f"raised {type(exc).__name__}: {exc}"]
        outcome = "; ".join(problems) if problems else "decided correctly"
        outcomes.append(f"dmc.includes on {instance['found']}: {outcome}")
    return outcomes


def run_noise(doc):
    a = noise.from_json_dict(doc["a"])
    b = noise.from_json_dict(doc["b"])
    relation = noise.check_order(a, b).relation
    join, meet, total = noise.lub(a, b), noise.glb(a, b), noise.profile_sum(a, b)
    cf = [noise.log_cf(a, z) for z in doc["zetas"]]
    variances = (noise.variance(a), noise.variance(b), noise.variance(total))
    return a, b, relation, join, meet, cf, variances


def check_noise(doc, result):
    a, b, relation, join, meet, _, _ = result
    problems = []
    if doc["expect"] is not None and relation.value != doc["expect"]:
        problems.append(f"noise relation {relation.value}, built as {doc['expect']}")
    return problems + checks.noise_bound_problems(a, b, join, meet)


def run_phase(doc):
    order = doc["order"]
    channel = phase.product_channel(
        phase.from_wrapped(_family(doc["h"]), order), phase.from_wrapped(_family(doc["v"]), order)
    )
    channel = phase.from_json_dict(phase.to_json_dict(channel))
    joint = phase.joint_from_marginals(_family(doc["in"]), _family(doc["out"]), 2 * order)
    grid = phase.degradation_coeffs(joint, order)
    degraded = phase.degrade(channel, grid)
    return degraded, phase.is_strict(channel, grid)


def check_phase(doc, result):
    return checks.strictness_problems(result[1], doc["expect"])


def run_lgc(doc):
    better = lgc.from_json_dict(doc["better"])
    worse = lgc.from_json_dict(doc["worse"])
    a, b = lgc.canonicalize(better), lgc.canonicalize(worse)
    decision = lgc.includes(better, worse, tolerance=TOLERANCE)
    report = lgc.verify_equivalence_transform(better, doc["B"], doc["C"], tolerance=TOLERANCE)
    return a, b, decision, lgc.lub(a, b), lgc.glb(a, b), report


def check_lgc(doc, result):
    a, b, decision, join, meet, report = result
    problems = []
    if doc["included"] is not None and decision.included != doc["included"]:
        problems.append(f"lgc decided included={decision.included}, built as included")
    if not report.equivalent:
        problems.append(f"admissible processing reported as not equivalent: {report.condition}")
    return problems + checks.spectrum_bound_problems(a, b, join, meet)


def _samplers(doc):
    base = lgc.from_json_dict(doc["base"]).H
    return (lgc.HaarRotated(base), doc["seed_a"]), (lgc.GaussianEntries(4, 4, doc["scale"]), doc["seed_b"])


def run_ensemble(doc):
    (haar, seed_a), (gauss, seed_b) = _samplers(doc)
    a = lgc.ensemble_from_sampler(haar, doc["n"], seed_a)
    b = lgc.ensemble_from_sampler(gauss, doc["n"], seed_b)
    return a, b, lgc.ensemble_order(a, b), lgc.ensemble_lub(a, b)


def check_ensemble(doc, result):
    a, b, _, join = result
    problems = []
    for (sampler, seed), drawn, what in zip(_samplers(doc), (a, b), ("haar", "gaussian")):
        again = lgc.ensemble_from_sampler(sampler, doc["n"], seed)
        problems += checks.same_bytes_problems(drawn, again, what)
    return problems + checks.ensemble_bound_problems(a, b, join)


_IN_PROCESS = {
    "dmc": (run_dmc, check_dmc),
    "noise": (run_noise, check_noise),
    "phase": (run_phase, check_phase),
    "lgc": (run_lgc, check_lgc),
    "ensemble": (run_ensemble, check_ensemble),
}


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Seeded query blocks plus how to run and check one query.

    ``run`` is what the timed loop measures.  ``replay`` is the in-process
    form the traced pass records spans around; it is ``run`` except for the
    ``cli`` workload, whose timed queries are separate processes.
    """

    name = ""
    min_queries = 1  # the timed loop runs on until at least this many

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = int(seed)
        self.tiny = tiny
        self._first_block = None

    def block(self, index: int) -> list[Query]:
        """The queries of block ``index``; block 0 is made once and kept, as part of set-up."""
        if index != 0:
            return self.make_block(index)
        if self._first_block is None:
            self._first_block = self.make_block(0)
        return self._first_block

    def make_block(self, index: int) -> list[Query]:
        raise NotImplementedError

    def run(self, query: Query):
        return _IN_PROCESS[query.kind][0](query.doc)

    def check(self, query: Query, result) -> list[str]:
        return _IN_PROCESS[query.kind][1](query.doc, result)

    replay = run

    def digest(self, n_blocks: int) -> str:
        """Hash of the first blocks' inputs; equal seeds give equal hashes."""
        blob = json.dumps([[q.kind, q.doc] for i in range(n_blocks) for q in self.block(i)],
                          sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


class DmcLarge(Workload):
    """4x4 better channel against 3x4, 4x3 and 4x4 worse channels (16,384-65,536 pairs).

    One block is the whole 4x4 suite plus, per suite pair, an included and
    a random worse channel of each smaller shape (the pair's draw of their
    suites), in an order drawn from the seed: every run decides the same
    36 pairs in full.
    """

    name = "dmc-large"

    def make_block(self, index):
        rng = _rng(self.seed, index)
        n1, m1 = (2, 2) if self.tiny else (4, 4)
        small = ((2, 2), (3, 2)) if self.tiny else ((3, 4), (4, 3))
        largest = (2, 3) if self.tiny else (4, 4)
        # The 4x4 pairs come from a fixed suite, the same for every seed: one
        # 4x4 decision costs 0.7-3.6 s depending on the draw and a run fits
        # about a dozen, so seeded 4x4 draws would make the run-to-run spread
        # a property of the draws rather than of the program.  The smaller
        # decisions (0.2-0.6 s) are fixed for the same reason, since the
        # median falls among them (twice as many) and the 90th percentile
        # among the 4x4 ones.
        queries = []
        for pair in range(_DMC_SUITE_PAIRS):
            for n2, m2 in small:
                for included in (True, False):
                    shape = (n1, m1, n2, m2)
                    draw = suite_draws(shape, included)[pair]
                    queries.append(_dmc_pair_query(*suite_pair(shape, draw, included), included))
            suite = _rng(_DMC_SUITE_SEED, pair)
            for included in (True, False):
                better = _stochastic(suite, n1, m1)
                worse = (_included_worse(suite, better, *largest,
                                         repeated=pair == _DMC_SUITE_PAIRS - 1)[0]
                         if included else _stochastic(suite, *largest))
                queries.append(_dmc_pair_query(better, worse, included))
        return [queries[i] for i in rng.permutation(len(queries))]


# (better inputs, better outputs, worse inputs, worse outputs): 16 to 5,184 pairs.
# Query i is built as included when i + block index is even, so the four
# larger shapes sit once at an even and once at an odd place: every block
# decides one included and one random pair of each, and blocks cost alike.
_FAMILY_DMC_SHAPES = ((4, 2, 2, 4), (3, 3, 3, 3), (4, 3, 3, 4), (3, 3, 4, 4),
                      (3, 3, 3, 3), (4, 2, 2, 4), (3, 3, 4, 4), (4, 3, 3, 4),
                      (2, 2, 2, 2), (3, 2, 2, 3), (2, 3, 3, 2), (2, 4, 4, 2))
_FAMILY_PHASE_ORDERS = (16, 16, 24, 32, 32, 40, 48, 56, 64, 64)
_FAMILY_LGC_SIZES = (2, 3, 4, 5, 6, 7, 8, 8) * 2
# 3 messages of length-2 words: at most 16**3 = 4,096 codebooks.
_ERROR_PROBABILITY = (3, 2)


class Families(Workload):
    """Per block: 12 dmc, 16 noise, 10 phase, 16 lgc and 1 ensemble query.

    The counts put dmc, phase and the ensembles each at a fifth to two
    fifths of the traced busy time.  The noise and lgc queries (1-3 ms
    each) are more than half of a block, so the median latency falls
    inside their band rather than on the step up to the dmc and phase
    queries, and the 90th percentile falls among the dmc and phase ones.
    """

    name = "families"
    min_queries = 100

    def make_block(self, index):
        rng = _rng(self.seed, index)
        queries = []
        dmc_shapes = _FAMILY_DMC_SHAPES[8:10] if self.tiny else _FAMILY_DMC_SHAPES
        for i, shape in enumerate(dmc_shapes):
            queries.append(_dmc_query(rng, *shape, included=(i + index) % 2 == 0,
                                      error_probability=_ERROR_PROBABILITY))
        for i, flag in enumerate(("noise_K", "spectral") * 8):
            queries.append(_noise_query(rng, flag, ordered=(i // 2 + index) % 2 == 0))
        orders = (3, 4) if self.tiny else _FAMILY_PHASE_ORDERS
        for i, order in enumerate(orders):
            queries.append(_phase_query(rng, order, _PHASE_CLASSES[(i + index) % 3]))
        sizes = (2, 3) if self.tiny else _FAMILY_LGC_SIZES
        for i, n in enumerate(sizes):
            queries.append(_lgc_query(rng, n, included=(i + index) % 2 == 0))
        queries.append(_ensemble_query(rng, 50 if self.tiny else 2000))
        return [queries[i] for i in rng.permutation(len(queries))]


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)


def _torus_doc(coeffs: np.ndarray, order: int, role: str) -> dict:
    flat = coeffs.ravel()
    return {"type": "torus", "order": order, "role": role,
            "coeffs": np.column_stack([flat.real, flat.imag]).tolist()}


def _wrapped(m, kind, mean, scale):
    if kind == "wgauss":
        return np.exp(1j * m * mean - scale * m.astype(float) ** 2 / 2.0)
    if kind == "wcauchy":
        return np.exp(1j * m * mean - scale * np.abs(m))
    return np.exp(1j * m * mean)  # point phase at angle ``mean``


def _singular_ensemble_doc(matrices: np.ndarray, seed: int) -> dict:
    return {"type": "lgc_ensemble", "samples": np.linalg.svd(matrices, compute_uv=False).tolist(),
            "seed": seed, "copula_note": "generated by the benchmark"}


class Cli(Workload):
    """Every subcommand of the four groups, one ``chanorder`` process each."""

    name = "cli"
    min_queries = 100

    def __init__(self, seed, tiny=False, workdir=None):
        super().__init__(seed, tiny)
        if workdir is None:
            raise ValueError("the cli workload needs a directory for its documents")
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
        self._argv = self._write_documents()

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _write_documents(self):
        rng = _rng(self.seed, 0, stream=1)
        files = {}

        # dmc: a 4x4 channel against 3x3 channels (5,184 pairs per decision).
        n1, n2 = (2, 2) if self.tiny else (4, 3)
        shape = (n1, n1, n2, n2)
        better, worse, pairs, weights = suite_mixture(shape, _suite_pick(rng, shape, True))
        files["dmc_better.json"] = _dmc_doc(better)
        files["dmc_worse.json"] = _dmc_doc(worse)
        files["dmc_permuted.json"] = _dmc_doc(worse[:, ::-1])
        files["dmc_identity.json"] = _dmc_doc(np.eye(n2))
        files["dmc_witness.json"] = {
            "weights": weights.tolist(),
            "pairs": [{"input_map": list(p.input_map), "output_map": list(p.output_map)} for p in pairs],
        }

        a, b = _noise_pair(rng, "noise_K", ordered=True)
        files["noise_a.json"], files["noise_b.json"] = a, b

        # phase: order-64 channel and degradation grids, written from closed forms.
        order = 4 if self.tiny else 64
        m = np.arange(-order, order + 1)
        wide = np.arange(-2 * order, 2 * order + 1)
        h_spec = ("wgauss", float(rng.uniform(-1, 1)), float(rng.uniform(0.05, 0.5)))
        v_spec = ("wcauchy", float(rng.uniform(-1, 1)), float(rng.uniform(0.05, 0.5)))
        files["phase_channel.json"] = _torus_doc(
            np.outer(_wrapped(m, *h_spec), _wrapped(m, *v_spec)), order, "channel")
        for name, into in (("strict", ("wgauss", 0.3, 0.25)), ("undo", ("point", 0.7, 0.0))):
            i_seq = _wrapped(wide, *into)
            o_seq = _wrapped(wide, "point", float(rng.uniform(-3, 3)), 0.0)
            grid = i_seq[m + 2 * order][:, None] * o_seq[(m[:, None] + m[None, :]) + 2 * order]
            files[f"phase_{name}.json"] = _torus_doc(grid, order, "degradation")

        h, sigma = rng.standard_normal((4, 4)), _spd(rng, 4)
        files["lgc_a.json"] = _lgc_doc(h, sigma)
        files["lgc_b.json"] = _lgc_doc(0.5 * h, sigma)
        files["lgc_B.json"] = {"type": "matrix", "matrix": _orthogonal(rng, 4).tolist()}
        c = _orthogonal(rng, 4) @ np.diag(rng.uniform(0.5, 2.0, size=4)) @ _orthogonal(rng, 4)
        files["lgc_C.json"] = {"type": "matrix", "matrix": c.tolist()}
        n = 50 if self.tiny else 2000
        base = np.diag([4.0, 3.0, 2.0, 1.5])
        q_out = np.linalg.qr(rng.standard_normal((n, 4, 4)))[0]
        q_in = np.linalg.qr(rng.standard_normal((n, 4, 4)))[0]
        files["lgc_ens_haar.json"] = _singular_ensemble_doc(q_out @ base @ q_in, 1)
        files["lgc_ens_gauss.json"] = _singular_ensemble_doc(0.3 * rng.standard_normal((n, 4, 4)), 2)

        for name, obj in files.items():
            _write_json(self._path(name), obj)
        self.files = sorted(files)

        wg = f"wgauss:{h_spec[1]!r}:{h_spec[2]!r}"
        wc = f"wcauchy:{v_spec[1]!r}:{v_spec[2]!r}"
        result = "result"
        return [
            ("dmc", ["dmc", "check", "--better", "@dmc_better.json", "--worse", "@dmc_worse.json"],
             (0, result, "dmc check")),
            ("dmc", ["dmc", "check", "--better", "@dmc_better.json", "--worse", "@dmc_identity.json"],
             (1, result, "dmc check")),
            ("dmc", ["dmc", "equiv", "--a", "@dmc_worse.json", "--b", "@dmc_permuted.json"],
             (0, result, "dmc equiv")),
            ("dmc", ["dmc", "degrade", "--channel", "@dmc_better.json", "--witness", "@dmc_witness.json",
                     "--n-outputs", str(n2)], (0, "dmc", "dmc degrade")),
            ("dmc", ["dmc", "error-prob", "--channel", "@dmc_better.json", "--messages", "3",
                     "--block-length", "2"], (0, result, "dmc error-prob")),
            ("noise", ["noise", "check", "--better", "@noise_a.json", "--worse", "@noise_b.json"],
             (0, result, "noise check")),
            ("noise", ["noise", "lub", "@noise_a.json", "@noise_b.json"], (0, "kfunction", "noise lub")),
            ("noise", ["noise", "glb", "@noise_a.json", "@noise_b.json"], (0, "kfunction", "noise glb")),
            ("noise", ["noise", "cf", "--profile", "@noise_a.json", "--zeta", "0.5", "--zeta", "2.0"],
             (0, result, "noise cf")),
            ("noise", ["noise", "variance", "--profile", "@noise_b.json"], (0, result, "noise variance")),
            ("phase", ["phase", "build", "--h-phase", wg, "--v-phase", wc, "--order", str(order)],
             (0, "torus", "phase build")),
            ("phase", ["phase", "degrade", "--channel", "@phase_channel.json",
                       "--degradation", "@phase_strict.json"], (0, "torus", "phase degrade")),
            ("phase", ["phase", "strict", "--channel", "@phase_channel.json",
                       "--degradation", "@phase_strict.json"], (1, result, "phase strict")),
            ("phase", ["phase", "strict", "--channel", "@phase_channel.json",
                       "--degradation", "@phase_undo.json"], (0, result, "phase strict")),
            ("phase", ["phase", "extremal", "--kind", "worst", "--order", str(order)],
             (0, "torus", "phase extremal")),
            ("lgc", ["lgc", "canon", "--channel", "@lgc_a.json"], (0, result, "lgc canon")),
            ("lgc", ["lgc", "check", "--better", "@lgc_a.json", "--worse", "@lgc_b.json"],
             (0, result, "lgc check")),
            ("lgc", ["lgc", "lub", "@lgc_a.json", "@lgc_b.json"], (0, result, "lgc lub")),
            ("lgc", ["lgc", "glb", "@lgc_a.json", "@lgc_b.json"], (0, result, "lgc glb")),
            ("lgc", ["lgc", "verify-equiv", "--channel", "@lgc_a.json", "--b-matrix", "@lgc_B.json",
                     "--c-matrix", "@lgc_C.json"], (0, result, "lgc verify-equiv")),
            ("lgc", ["lgc", "sample-haar", "--n", "4", "--seed", "{block}"], (0, result, "lgc sample-haar")),
            ("lgc", ["lgc", "ensemble-order", "--a", "@lgc_ens_haar.json", "--b", "@lgc_ens_gauss.json"],
             (0, result, "lgc ensemble-order")),
        ]

    def make_block(self, index):
        queries = []
        for group, argv, (code, kind, command) in self._argv:
            argv = [a.replace("{block}", str(self.seed + index)) for a in argv]
            queries.append(Query(group, {
                "argv": argv, "expect": {"code": code, "type": kind, "command": command},
            }))
        return queries

    def _argv_for(self, query):
        return [self._path(a[1:]) if a.startswith("@") else a for a in query.doc["argv"]]

    def run(self, query):
        proc = subprocess.run(
            [sys.executable, "-c", CLI_ENTRY, *self._argv_for(query)],
            env=self.env, capture_output=True, text=True, timeout=120, check=False,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, query, result):
        code, stdout, stderr = result
        problems = checks.cli_problems(code, stdout, query.doc["expect"])
        if problems and stderr.strip():
            problems.append("stderr: " + stderr.strip().splitlines()[-1][:300])
        return problems

    def replay(self, query):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.run(self._argv_for(query))
        return code, out.getvalue(), ""

    def digest(self, n_blocks):
        h = hashlib.sha256(super().digest(n_blocks).encode())
        for name in self.files:
            with open(self._path(name), "rb") as handle:
                h.update(name.encode() + b"\0" + handle.read())
        return h.hexdigest()


WORKLOADS = {"dmc-large": DmcLarge, "families": Families, "cli": Cli}


def make(name: str, seed: int, tiny: bool = False, workdir=None) -> Workload:
    if name == "cli":
        return Cli(seed, tiny, workdir=workdir)
    return WORKLOADS[name](seed, tiny)
