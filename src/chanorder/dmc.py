"""Inclusion order over discrete memoryless channels.

A channel is included in another when it can be written as a convex mixture
of deterministic input/output degradations of the better channel (Shannon's
inclusion order).  ``includes`` first looks for a 0/1 codebook separator:
inclusion implies that the better channel's best M-codebook decodes at
least as well as the worse one's (Shannon 1958), so a worse codebook that
decodes better proves "not included" without pricing any pair.  Otherwise
it decides with Wolfe's min-norm-point algorithm over that hull: a corral
of a few degradation pairs with convex weights moves towards the worse
channel, and each residual ``h`` is priced
exactly against every pair by enumerating the smaller side of the pair
(input maps or output maps) and choosing the other side greedily.  The
smaller side's products with the better channel are stacked once per
decision (at most 1,000 maps at the default cap, the square root of the
pair count, and 2**27 entries at any cap) with the maps last, in chunks of
``_PRICING_CHUNK`` maps, so that pricing a chunk is one GEMM with ``h`` and
maxima and sums over the scores' outer axes; a step holds one chunk's
scores at a time, at most ``4,096 * n1 * n2`` (or ``4,096 * m1 * m2``).
The corral keeps an
orthonormal basis of its differences and the combinations of its columns
that make each basis vector: a joining pair grows the basis by one
Gram-Schmidt step done twice, a dropped pair removes one basis vector after
a Householder reflection, and each minor step reads its weight change
from the kept factor and projects ``h`` off the corral's hull twice, so no
step refactors the corral.  A major step is some sixty numpy calls on
vectors of ``n2 * m2`` entries, so call dispatch, not arithmetic, sets its
cost: its products are spelled ``ndarray.dot`` and ``ufunc.reduce``,
numpy's C entry points, which give the bits of ``@`` and of the ``.sum``,
``.max`` and ``.min`` wrappers without their dispatch.  It stops
with a witness once the residual's 1-norm is within the tolerance, and with
``h`` as a separating functional once no pair can bring the corral closer.
The answer is a certificate either way, checked before it is returned.
``degradation_products`` enumerates every pair's product and the map
tables; no library code reads it, and the tests check certificates against
it.  ``best_error_probability`` wraps the same best-codebook kernel for
block codes on the memoryless extension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .numerics import (_checked_count, _clipped, _frozen, _number_array, _owned_array, _required,
                       _unchecked, checked_integer)

__all__ = [
    "CONVENTIONS",
    "ENUMERATION_CAP",
    "EnumerationTooLargeError",
    "StochasticMatrix",
    "DeterministicPair",
    "InclusionWitness",
    "InclusionDecision",
    "bsc",
    "degradation_products",
    "includes",
    "equivalent",
    "degrade",
    "best_error_probability",
    "to_json_dict",
    "from_json_dict",
    "witness_to_json_dict",
    "witness_from_json_dict",
]

ENUMERATION_CAP = 1_000_000
_PRINTED_BITS = 4096  # a longer count (past 1,233 digits) is named by its powers

# Hard bound on the major steps of one inclusion decision.
_MAX_STEPS = 10_000
# A best pair gaining less than this fraction of ``||h|| * ||step||`` lies on
# the corral's affine hull to rounding (a gain of 0 in exact arithmetic).
_ON_HULL = 1e-12
# Per coordinate, a residual this small is rounding: the corral's point can
# get no closer, so only replaying the witness can decide a smaller tolerance.
_ROUNDING = 16 * np.finfo(float).eps

_ROW_SUM_TOL = 1e-12
_TINY = np.finfo(float).tiny


class EnumerationTooLargeError(ValueError):
    """Raised when an exhaustive search would exceed the configured cap."""

    def __init__(self, count: int | str, cap: int, what: str = "candidates"):
        count_text, cap_text = _printed(count), _printed(cap)
        super().__init__(f"enumeration too large: {count_text} {what} exceeds the cap of {cap_text}")
        self.count = count
        self.cap = cap


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Row-stochastic matrix of transition probabilities, inputs x outputs.

    Rows must sum to 1 within 1e-12 and entries must lie in
    ``[-1e-12, 1 + 1e-12]``; entries are clamped to ``[0, 1]`` on
    construction.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = _owned_array(self.entries, "entries", 2)
        sums = np.add.reduce(entries, 1)  # of the entries as given, before clipping
        _clipped(entries, "entries must lie in [0, 1]", 1.0)
        off = np.abs(sums - 1.0)
        if float(np.maximum.reduce(off)) > _ROW_SUM_TOL:
            row = int(np.argmax(off))
            raise ValueError(f"row {row} sums to {sums[row]!r}, expected 1")
        _frozen(self, entries=entries)

    @property
    def n_inputs(self) -> int:
        return self.entries.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.entries.shape[1]


def bsc(crossover: float) -> StochasticMatrix:
    """Binary symmetric channel with the given crossover probability."""
    p = float(crossover)
    if not 0.0 <= p <= 1.0:
        raise ValueError("crossover probability must lie in [0, 1]")
    return StochasticMatrix(np.array([[1.0 - p, p], [p, 1.0 - p]]))


@dataclass(frozen=True)
class DeterministicPair:
    """One deterministic input/output degradation.

    ``input_map[w]`` is the better-channel input fed when the degraded
    channel's input is ``w`` (the 0/1 input-degradation matrix);
    ``output_map[j]`` is the degraded-channel output emitted when the better
    channel produces output ``j`` (the 0/1 output-degradation matrix).
    """

    input_map: tuple[int, ...]
    output_map: tuple[int, ...]

    def __post_init__(self):
        for v in (*self.input_map, *self.output_map):
            if isinstance(v, bool) or not isinstance(v, Integral):
                raise ValueError(f"map values must be integer indices, got {v!r}")
        input_map = tuple(int(v) for v in self.input_map)
        output_map = tuple(int(v) for v in self.output_map)
        if not input_map or not output_map:
            raise ValueError("maps must be total on nonempty domains")
        if min(input_map) < 0 or min(output_map) < 0:
            raise ValueError("map values must be nonnegative indices")
        _frozen(self, input_map=input_map, output_map=output_map)

    def apply(self, channel: StochasticMatrix, n_outputs: int | None = None) -> np.ndarray:
        """Raw matrix of the degraded channel R @ K @ T for this pair."""
        return _products(channel, (self,), n_outputs)[0]


@dataclass(frozen=True, eq=False)
class InclusionWitness:
    """Convex mixture of deterministic pairs reproducing the worse channel."""

    pairs: tuple[DeterministicPair, ...]
    weights: np.ndarray
    residual: float

    def replay(self, better: StochasticMatrix, n_outputs: int | None = None) -> StochasticMatrix:
        return degrade(better, self.pairs, self.weights, n_outputs=n_outputs)


@dataclass(frozen=True, eq=False)
class InclusionDecision:
    """Result of an inclusion query: a witness or a separating functional."""

    included: bool
    witness: InclusionWitness | None = None
    separator: np.ndarray | None = None
    margin: float | None = None


def _maps(domain: int, codomain: int) -> np.ndarray:
    """Every map from ``range(domain)`` to ``range(codomain)``, one per row, in
    ``itertools.product`` order."""
    return np.indices((codomain,) * domain).reshape(domain, -1).T


def _collapsed(k: np.ndarray, output_maps: np.ndarray, m2: int, maps_last: bool = False) -> np.ndarray:
    """``K @ T`` for every output map, shape (maps, n1, m2), or (m2, n1, maps)
    when ``maps_last``.

    The one K T kernel: the output-side pricing table and ``_products``
    (so ``DeterministicPair.apply`` and ``degrade``) call it, so a product is
    bit-identical wherever it is computed, in either layout.  Better output
    j adds its column of ``K`` through one flat index array, so every bin
    adds in j order, as the input-side pricing column does.
    """
    (n_maps, m1), n1 = output_maps.shape, len(k)
    out = np.zeros((m2, n1, n_maps) if maps_last else (n_maps, n1, m2))
    # cells: each (map, better input) cell's flat offset at output 0; targets[j]: that of output T(j).
    if maps_last:
        cells, targets, columns = (np.arange(n1 * n_maps).reshape(n1, n_maps),
                                   output_maps.T[:, None] * (n1 * n_maps), k.T[:, :, None])
    else:
        cells, targets, columns = (np.arange(0, out.size, m2).reshape(n_maps, n1),
                                   output_maps.T[:, :, None], k.T)
    flat = out.reshape(-1)
    for j in range(m1):
        flat[cells + targets[j]] += columns[j]
    return out


def _products(channel: StochasticMatrix, pairs: tuple, n_outputs) -> np.ndarray:
    """``R K T`` of each of ``pairs``, stacked as ``(pairs, n2, n_outputs)``
    (None: one past the largest output label).  The maps must fit ``channel``
    and ``n_outputs``, and the ``pairs * n1 * n_outputs`` block must be within
    ``ENUMERATION_CAP`` (else EnumerationTooLargeError), both checked before allocating."""
    n1, m1 = channel.entries.shape
    n2 = len(pairs[0].input_map)
    for pair in pairs:
        if len(pair.input_map) != n2:
            raise ValueError("all input maps must share one domain size")
        if len(pair.output_map) != m1:
            raise ValueError("output_map must be total on the channel outputs")
        if max(pair.input_map) >= n1:
            raise ValueError("input_map addresses a missing channel input")
    top = max(max(pair.output_map) for pair in pairs)
    n_outputs = top + 1 if n_outputs is None else checked_integer(n_outputs, "n_outputs")
    if top >= n_outputs:
        raise ValueError("output_map addresses a missing degraded output")
    _check_count(((len(pairs) * n1, 1), (n_outputs, 1)), ENUMERATION_CAP, "product entries")
    products = _collapsed(channel.entries, np.array([pair.output_map for pair in pairs]), n_outputs)
    return products[np.arange(len(pairs))[:, None], np.array([pair.input_map for pair in pairs])]


def _printed(number: int | str) -> str:
    """``number`` in decimal, or, past ``_PRINTED_BITS``, by its bit length."""
    if isinstance(number, int) and number.bit_length() > _PRINTED_BITS:
        return f"({number.bit_length()}-bit number)"
    return str(number)


def _check_count(factors: tuple[tuple[int, int], ...], cap: int, what: str) -> None:
    """EnumerationTooLargeError unless the product of ``base**exponent`` over
    ``factors`` is at most ``cap``.  Its ``log2`` decides first, so a count
    of millions of digits is never built: one too long to print is named by
    its powers, such as ``3**3000000`` (a power of 1 by its base alone, a
    base or exponent too long to print by its bit length), and every other
    count exactly."""
    # Clamped exponents keep the float sum finite; the sum only falls.
    bits = sum(math.log2(base) * min(exponent, 1 << 1000) for base, exponent in factors)
    if bits <= max(_PRINTED_BITS, math.log2(max(cap, 1)) + 1):
        count = math.prod(base**exponent for base, exponent in factors)
        if count <= cap:
            return
    if bits > _PRINTED_BITS:
        count = " * ".join(_printed(base) + (f"**{_printed(exponent)}" if exponent != 1 else "")
                           for base, exponent in factors)
    raise EnumerationTooLargeError(count, cap, what)


def _check_cap(better: StochasticMatrix, n2: int, m2: int, cap: int) -> None:
    _check_count(((better.n_inputs, n2), (m2, better.n_outputs)), cap, "deterministic input/output pairs")


def degradation_products(
    better: StochasticMatrix,
    worse_shape: tuple[int, int],
    cap: int = ENUMERATION_CAP,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Vectorized products R @ K @ T over all deterministic pairs.

    The exhaustive enumeration, which ``includes`` does not use; the tests
    check certificates against it.  Returns the products, one ``vec(R K T)``
    per row, and the map tables ``(input_maps, output_maps)``, one map per row,
    each in ``itertools.product`` order.  Row ``t * len(input_maps) + i`` is
    the product for ``input_maps[i]`` and ``output_maps[t]``, so there are
    ``n1**n2 * m2**m1`` rows and equal products are all kept.  Raises
    EnumerationTooLargeError when that count exceeds the cap.
    """
    n2 = _checked_count(worse_shape[0], "worse_shape[0]")
    m2 = _checked_count(worse_shape[1], "worse_shape[1]")
    _check_cap(better, n2, m2, cap)
    input_maps, output_maps = _maps(n2, better.n_inputs), _maps(better.n_outputs, m2)
    # np.take writes a new C-contiguous array, so the reshape copies nothing.
    rows = np.take(_collapsed(better.entries, output_maps, m2), input_maps, axis=1)
    return rows.reshape(-1, n2 * m2), (input_maps, output_maps)


# Pricing tables hold this many maps per chunk, and codebooks are scored this
# many at a time, so the scratch memory of a step or a search stays bounded.
_PRICING_CHUNK = 4096
_CODEBOOK_CHUNK = 4096
# Whatever the cap, a pricing table holds at most this many products' entries
# (1 GiB of floats): a 7x7 table, 7**7 maps of 7x7 products, fits; an 8x8
# one, of 8**8 maps, does not.
_PRICING_TABLE_ENTRIES = 2**27


class _PricingTable(NamedTuple):
    """The smaller side's maps, one per row, and their products with ``K``,
    stacked once per decision with the maps last, in chunks of
    ``_PRICING_CHUNK`` maps, so that pricing a chunk is one GEMM: ``K T``
    for each output map, chunks of shape ``(m2, n1, maps)``, or ``R K`` for
    each input map, chunks of shape ``(n2, m1, maps)``.  ``operands`` holds
    each chunk as the 2-D view that GEMM multiplies."""

    k: np.ndarray
    n2: int
    m2: int
    output_side: bool
    maps: np.ndarray
    products: tuple[np.ndarray, ...]
    operands: tuple[np.ndarray, ...]


def _pricing_table(k: np.ndarray, n2: int, m2: int) -> _PricingTable:
    """Stack the products of the smaller side, ``min(n1**n2, m2**m1)`` maps.

    EnumerationTooLargeError unless they hold at most
    ``_PRICING_TABLE_ENTRIES`` entries, checked before the maps are built."""
    n1, m1 = k.shape
    output_side = m2**m1 <= n1**n2
    entries = ((m2, m1), (n1 * m2, 1)) if output_side else ((n1, n2), (n2 * m1, 1))
    _check_count(entries, _PRICING_TABLE_ENTRIES, "pricing table entries")
    maps = _maps(m1, m2) if output_side else _maps(n2, n1)
    chunks = (maps[start:start + _PRICING_CHUNK] for start in range(0, len(maps), _PRICING_CHUNK))
    if output_side:
        products = tuple(_collapsed(k, chunk, m2, maps_last=True) for chunk in chunks)
    else:
        products = tuple(k[chunk.T[:, None], np.arange(m1)[:, None]] for chunk in chunks)
    operands = tuple(chunk.reshape(len(chunk), -1) for chunk in products)
    return _PricingTable(k, n2, m2, output_side, maps, products, operands)


def _best_pair(table: _PricingTable, h: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """The pair maximizing ``<h, vec(R K T)>`` over all deterministic pairs,
    as the index of its map in ``table.maps``, the other side's map (the
    greedy argmaxes), and its ``vec(R K T)``.

    Each chunk of the table is one GEMM with ``H = h.reshape(n2, m2)``, and
    its maxima and sums run over the scores' outer axes.  For a fixed output
    map T each degraded input w independently takes ``argmax_i (H T^T
    K^T)[w, i]``; for a fixed input map R each better output j takes
    ``argmax_z (H^T R K)[z, j]``.  Ties go to the lowest index, within a
    chunk by ``argmax`` and across chunks by a strict ``>``.  A step holds
    one chunk's scores at a time: at most ``_PRICING_CHUNK * n1 * n2`` of
    them on the output side, ``_PRICING_CHUNK * m1 * m2`` on the input side.
    The column is bit-identical to ``DeterministicPair.apply``'s; no pair
    is built (``_table_pair`` builds one).
    """
    hm = h.reshape(table.n2, table.m2)
    # Scores are (n2, n1, maps) on the output side, the greedy choice over
    # better inputs i, and (m2, m1, maps) on the input side, over degraded
    # outputs z.
    weights, axis = (hm, 1) if table.output_side else (hm.T, 0)
    best_value, start = -math.inf, 0
    for chunk, operand in zip(table.products, table.operands):
        _, inner, size = chunk.shape
        scores = weights.dot(operand).reshape(-1, inner, size)
        values = np.add.reduce(np.maximum.reduce(scores, axis))
        index = int(values.argmax())
        if (value := values[index]) > best_value:
            best_value, best = value, start + index
            argmaxes, product = scores[..., index].argmax(axis=axis), chunk[..., index]
        start += size
    if table.output_side:
        return best, argmaxes, product.T[argmaxes].ravel()
    # R K T from the table's R K: np.add.at adds each better output j in j
    # order, as _collapsed does.
    column = np.zeros((table.m2, table.n2))
    np.add.at(column, argmaxes, product.T)
    return best, argmaxes, column.T.ravel()


def _table_pair(table: _PricingTable, best: int, argmaxes: np.ndarray) -> DeterministicPair:
    """The pair ``_best_pair`` names by ``best`` and ``argmaxes``.

    Its maps are tuples of Python ints read off the table and the argmaxes,
    in range by construction, so it is built without validation.
    """
    chosen, other = tuple(table.maps[best].tolist()), tuple(argmaxes.tolist())
    if table.output_side:
        return _unchecked(DeterministicPair, input_map=other, output_map=chosen)
    return _unchecked(DeterministicPair, input_map=chosen, output_map=other)


def _best_codebook(entries: np.ndarray, size: int) -> tuple[float, np.ndarray]:
    """The best value ``sum_y max_c entries[c, y]`` over codebooks ``c`` of
    ``size`` rows, and one such codebook as increasing row indices.

    For a channel this is ``size`` times the best probability of correct
    maximum-likelihood decoding with ``size`` uniform messages.  When
    ``size`` rows can hold every output's best row (ties to the lowest),
    those rows are the codebook: no codebook does better.  Otherwise only
    sets of ``size`` distinct rows are scored, ties to the first in
    ``itertools.combinations`` order: a repeated row adds nothing, a
    further row lowers no ``max_c`` and float sums are monotone, so the
    value is the best over every multiset of ``size`` rows, bit for bit.
    """
    peaks = np.bincount(entries.argmax(axis=0), minlength=len(entries)).nonzero()[0]
    if size >= len(peaks):
        return float(np.add.reduce(np.maximum.reduce(entries))), peaks
    indices = itertools.chain.from_iterable(itertools.combinations(range(len(entries)), size))
    best_value, best = -math.inf, None
    while (chunk := np.fromiter(itertools.islice(indices, _CODEBOOK_CHUNK * size), dtype=np.intp)).size:
        chunk = chunk.reshape(-1, size)
        # Codewords along the leading axis: a max over it is elementwise.
        correct = np.add.reduce(np.maximum.reduce(entries[chunk.T]), 1)
        index = int(correct.argmax())
        if correct[index] > best_value:
            best_value, best = float(correct[index]), chunk[index]
    return best_value, best


def _codebook_separator(k: np.ndarray, w: np.ndarray, tolerance: float, cap: int):
    """A 0/1 separator ``G`` proving ``K`` does not include ``W``, with the
    pair that scores best under it; ``(None, None)`` if none is found.

    For M = 2, 3, ... in order: ``G`` holds one 1 per worse output ``y``, at
    the codeword of ``W``'s best M-codebook that decodes ``y`` (ties to the
    lowest index), so ``<G, W>`` is that codebook's value.  If ``G`` uses M'
    rows, a pair scores ``<G, vec(R K T)> = sum_j K[R(row decoding T(j)), j]``,
    at most ``K``'s best M'-codebook value, with equality for R sending
    ``G``'s rows to that codebook (its codewords repeat, in turn, when it
    has fewer than M' rows) and T sending each better output to a
    column of the row whose codeword ``K`` decodes there; that is the pair
    returned.  ``G`` is accepted when ``<G, W>`` beats it by more than
    ``max(tolerance, _ROUNDING * n2 * m2)``, Wolfe's own floor: for every
    hull point x, ``<G, W - x> <= ||W - x||_1``, so Wolfe's search would
    answer "not included" too.  ``cap`` bounds the codebooks scored in all,
    over every M and both channels: the search ends before a codebook search
    whose sets, ``C(n2, M)`` or ``C(n1, M')``, would take that count past it.
    """
    n2, m2 = w.shape
    floor = max(tolerance, _ROUNDING * n2 * m2)
    budget = cap
    # Past the number of rows at which W's outputs peak, every size gives
    # the separator that number gives.
    for size in range(2, np.count_nonzero(np.bincount(w.argmax(axis=0), minlength=n2)) + 1):
        budget -= math.comb(n2, size)
        if budget < 0:
            break
        value, codebook = _best_codebook(w, size)
        decoders = codebook[w[codebook].argmax(axis=0)]
        used = len(set(decoders.tolist()))
        budget -= math.comb(len(k), min(used, len(k)))
        if budget < 0:
            break
        k_value, k_codebook = _best_codebook(k, used)
        if value - k_value > floor:
            rows, columns = np.unique(decoders, return_index=True)
            separator = np.zeros((n2, m2))
            separator[decoders, np.arange(m2)] = 1.0
            input_map = np.zeros(n2, dtype=np.intp)
            input_map[rows] = np.resize(k_codebook, used)
            output_map = columns[k[k_codebook].argmax(axis=0)]
            # Maps of Python ints in range by construction.
            pair = _unchecked(DeterministicPair, input_map=tuple(input_map.tolist()),
                              output_map=tuple(output_map.tolist()))
            return separator.ravel(), pair
    return None, None


# Printed with every dmc result by the command-line front end.
CONVENTIONS = (
    "decisions are deterministic: Wolfe's min-norm-point corral, "
    "each step priced exactly with ties to the lowest index",
    "a not-included certificate is a 0/1 codebook separator when the worse channel's "
    "best M-codebook decoder (M = 2, 3, ...) beats every pair by more than "
    "max(tolerance, the rounding floor), "
    "otherwise the corral's residual",
    "witnesses replay as: sum of weights * (input-degraded, output-degraded channel)",
)


def includes(
    better: StochasticMatrix,
    worse: StochasticMatrix,
    tolerance: float = 1e-9,
    cap: int = ENUMERATION_CAP,
) -> InclusionDecision:
    """Decide whether ``better`` includes ``worse``.

    ``_nearest_point`` runs Wolfe's algorithm towards the worse channel and
    ends with a certificate, which is checked here before it is returned.
    Included results carry a witness (pairs plus mixture weights) that
    replays the worse channel within the tolerance, with weights summing to
    1.  NotIncluded results carry a separating functional whose margin
    against the exactly priced best pair, and so against every
    deterministic pair, is strictly positive.  Before any pricing table,
    ``_codebook_separator`` tries to prove "not included" with a 0/1
    separator from the worse channel's best codebooks; its separator and
    best pair pass the same margin check.  A certificate that fails its
    check raises ArithmeticError.  The decision is Euclidean: a worse
    channel within ``tolerance`` of the hull in the 1-norm, but whose
    Euclidean-nearest hull point is not, is reported as not included, with
    a valid separator.  ``tolerance`` must be finite and positive, or
    ValueError is raised.  ``cap`` bounds the codebooks the separator
    search scores in all, and, separately, the size ``n1**n2 * m2**m1`` of
    the pair space that Wolfe's search prices, as for
    ``degradation_products``; EnumerationTooLargeError is raised only when
    that search is needed, so after at most ``cap`` codebooks.  Whatever
    ``cap``, that search's pricing table holds at most
    ``_PRICING_TABLE_ENTRIES`` entries, or EnumerationTooLargeError is
    raised before it is built.
    """
    tolerance = float(tolerance)
    if not 0.0 < tolerance < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tolerance!r}")
    n2, m2 = worse.n_inputs, worse.n_outputs
    target = worse.entries.ravel()
    separator, best = _codebook_separator(better.entries, worse.entries, tolerance, cap)
    if separator is None:
        _check_cap(better, n2, m2, cap)
        pairs, weights, separator, best = _nearest_point(better, target, n2, m2, tolerance)
        if separator is None:
            return _checked_witness(better, worse, pairs, weights, tolerance)
    margin = float(separator.dot(target) - separator.dot(best.apply(better, n_outputs=m2).ravel()))
    if not margin > 0.0:
        raise ArithmeticError(f"separator margin {margin:.3e} is not positive")
    return InclusionDecision(False, separator=separator, margin=margin)


def _nearest_point(better: StochasticMatrix, target: np.ndarray, n2: int, m2: int, tolerance: float):
    """Wolfe's min-norm-point algorithm over the hull of every ``vec(R K T)``.

    The corral (``_Corral``) is a list of affinely independent pairs with
    positive convex weights whose point ``x`` is the one nearest ``target``
    on their affine hull.  Each major step prices ``h = target - x`` with
    ``_best_pair`` against the pricing table built once here, and adds the
    best pair, as its table indices, with its column from the table; minor
    steps then move to the nearest point of the new corral's affine hull,
    line-searching back and dropping a pair whenever a weight would turn
    negative (Wolfe 1976).
    The corral keeps a factor of its differences ``columns[1:] -
    columns[0]``: an orthonormal basis ``Q`` of their span, grown on an add
    by one Gram-Schmidt step done twice, and the combinations ``B`` of the
    columns that make each basis vector.  A drop reflects the basis so that
    only its last vector uses the dropped column, and removes that vector.
    A minor step takes ``s = Q^T h``, moves the weights by ``B s``, and
    projects ``h`` off the hull twice, ``h - Q s`` and again; no step
    refactors the corral.  ``h`` is updated from its projections, never
    recomputed as ``target - x``, so it stays orthogonal to the corral's
    hull to rounding however short it gets.

    Returns ``(pairs, weights, None, None)`` once
    ``||target - x||_1 <= tolerance``, or within rounding; every weight is
    then positive, so the pairs built are the witness's support.
    Otherwise returns ``(None, None, h, best)``, ``best`` being the
    exact best pair under ``h``, when the worse channel beats it by more
    than ``tolerance * ||h||_1``, or when it cannot move ``x`` because it is
    in the corral or on its affine hull to rounding.  ``x`` is then the
    nearest point of the whole hull and the margin, ``||h||**2`` or more, is
    the global one however small.
    """
    table = _pricing_table(better.entries, n2, m2)
    best, argmaxes, column = _best_pair(table, target)
    corral = _Corral((best, argmaxes), column)
    anchor = corral.columns[0]  # a view: dropping the first pair shifts the next one into it
    floor = max(tolerance, _ROUNDING * target.size)
    h = target - column
    for _ in range(_MAX_STEPS):
        length = float(np.add.reduce(np.abs(h)))
        if length <= floor:
            pairs = [_table_pair(table, *indices) for indices in corral.pairs]
            return pairs, corral.weights[:corral.size].copy(), None, None
        best, argmaxes, column = _best_pair(table, h)
        step = column - anchor
        if (float(h.dot(step)) <= _ON_HULL * math.sqrt(h.dot(h)) * math.sqrt(step.dot(step))
                or float(h.dot(target) - h.dot(column)) > tolerance * length):
            return None, None, h, _table_pair(table, best, argmaxes)
        corral.add((best, argmaxes), column, step)
        while True:
            move, residual = corral.affine_step(h)
            weights = corral.weights[:corral.size]
            moved = weights + move
            if moved[moved.argmin()] > 0.0:  # the least weight, also when it is NaN
                weights[:] = moved
                h = residual
                break
            # Move towards the affine minimiser until the first weight
            # reaches zero, and drop the pairs that did.
            falling = moved <= 0.0
            scale = float(np.minimum.reduce(weights[falling] / np.maximum(-move[falling], _TINY)))
            weights += scale * move
            h = h + scale * (residual - h)
            keep = weights > 0.0
            keep[weights.argmin()] = False
            for index in (~keep).nonzero()[0][::-1].tolist():
                corral.drop(index)
    raise ArithmeticError(f"min-norm-point search did not converge in {_MAX_STEPS} steps")


class _Corral:
    """Wolfe's corral: its pairs (any keys; ``_nearest_point`` keeps each as
    ``_best_pair``'s indices), their columns ``C`` (one per row) and
    convex weights, and a kept factor of the differences
    ``D = columns[1:] - columns[0]``.

    ``basis`` holds ``Q^T``: an orthonormal basis ``Q`` of the span of
    ``D``, one vector per row.  ``coords`` holds ``B``, one row per pair and
    one column per basis vector, with ``C^T B = Q`` and zero column sums:
    each basis vector as a combination of the columns whose weights total
    0.  Until the first drop, ``B``'s rows after the first are ``R^-1`` of
    ``D = Q R`` and its first row is minus their sum.  The pairs are
    affinely independent, so there are at most ``dim + 1`` of them, and
    every buffer is allocated at that bound once; each method writes into
    them in place.
    """

    def __init__(self, pair, column: np.ndarray):
        dim = column.size
        self.pairs = [pair]
        self.columns = np.empty((dim + 1, dim))
        self.weights = np.empty(dim + 1)
        self.basis = np.empty((dim, dim))
        self.coords = np.empty((dim + 1, dim))
        self.columns[0], self.weights[0] = column, 1.0
        self.size = 1

    def add(self, pair, column: np.ndarray, step: np.ndarray) -> None:
        """Join ``pair`` with weight 0; ``step`` is ``column - columns[0]``.

        ``Q`` grows by one Gram-Schmidt step done twice ("twice is
        enough"), ``step = Q r + rho q`` with ``q`` orthogonal to ``Q``, so
        ``q`` is ``column - columns[0] - C^T B r`` over ``rho``: ``B`` gains
        that column and a row holding ``1 / rho`` in it.  The step is off
        the corral's affine hull (``_nearest_point`` checks it), so ``rho``
        is positive.
        """
        k, coords = self.size, self.coords
        q, orthogonal = self.basis[:k - 1], self.basis[k - 1]
        r = q.dot(step)
        np.subtract(step, r.dot(q), orthogonal)
        again = q.dot(orthogonal)
        orthogonal -= again.dot(q)
        r += again
        rho = math.sqrt(orthogonal.dot(orthogonal))
        orthogonal /= rho
        coords[:k, k - 1] = coords[:k, :k - 1].dot(r) / -rho
        coords[0, k - 1] -= 1.0 / rho
        coords[k, :k - 1] = 0.0
        coords[k, k - 1] = 1.0 / rho
        self.pairs.append(pair)
        self.columns[k], self.weights[k] = column, 0.0
        self.size = k + 1

    def affine_step(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weight change, summing to 0, from the corral's point to the nearest
        point of its affine hull, and the residual ``h`` there.

        With ``s = Q^T h`` the change is ``B s`` and the residual is
        ``h - Q s``, projected off the hull a second time ("twice is
        enough"), so it is orthogonal to the hull to rounding.  Both come
        from ``h`` itself, so they are accurate relative to ``h`` and not to
        the unit scale of the columns.
        """
        k = self.size
        q = self.basis[:k - 1]
        s = q.dot(h)
        residual = h - s.dot(q)
        residual -= q.dot(residual).dot(q)
        return self.coords[:k, :k - 1].dot(s), residual

    def drop(self, index: int) -> None:
        """Remove the pair at ``index`` and downdate the factor.

        Row ``index`` of ``B`` says how much of the dropped column each
        basis vector takes.  One Householder reflection ``H`` of the basis
        sends that row to a multiple of the last unit vector, so only the
        last vector of ``Q H`` uses the dropped column: it is removed with
        ``B``'s last column, and row ``index`` of ``B H``, zero to
        rounding, goes with the pair.  No QR is refactored.
        """
        k = self.size
        q, coords = self.basis[:k - 1], self.coords[:k, :k - 1]
        row = coords[index]
        reflector = row / math.sqrt(row.dot(row))
        reflector[-1] += math.copysign(1.0, reflector[-1])
        reflector *= math.sqrt(2.0 / reflector.dot(reflector))
        # Both products are taken before either array is reflected in place.
        along, across, head = reflector.dot(q), coords.dot(reflector), reflector[:-1]
        q[:-1] -= np.multiply.outer(head, along)
        coords[:, :-1] -= np.multiply.outer(across, head)
        coords[index:-1] = coords[index + 1:]
        del self.pairs[index]
        self.columns[index:k - 1] = self.columns[index + 1:k]
        self.weights[index:k - 1] = self.weights[index + 1:k]
        self.size = k - 1


def _checked_witness(better, worse, pairs, weights, tolerance) -> InclusionDecision:
    """Included decision from a corral and its weights, after replaying it."""
    support = (weights > 0.0).nonzero()[0]
    pairs = tuple(pairs[i] for i in support)
    weights = weights[support]
    total = float(np.add.reduce(weights))
    if abs(total - 1.0) > 1e-9:
        raise ArithmeticError(f"witness weights sum to {total!r}, expected 1")
    replayed = degrade(better, pairs, weights, n_outputs=worse.n_outputs)
    error = float(np.maximum.reduce(np.abs(replayed.entries - worse.entries), axis=None))
    if error > tolerance:
        raise ArithmeticError(f"witness replays with error {error:.3e} > tolerance {tolerance:.1e}")
    return InclusionDecision(True, witness=InclusionWitness(pairs, weights, residual=error))


def equivalent(
    a: StochasticMatrix,
    b: StochasticMatrix,
    tolerance: float = 1e-9,
    cap: int = ENUMERATION_CAP,
) -> bool:
    """True when each channel includes the other."""
    return (
        includes(a, b, tolerance=tolerance, cap=cap).included
        and includes(b, a, tolerance=tolerance, cap=cap).included
    )


def degrade(
    channel: StochasticMatrix,
    pairs,
    weights,
    n_outputs: int | None = None,
) -> StochasticMatrix:
    """Convex mixture of deterministic degradations of ``channel``.

    Weights must be finite, at least -1e-12 and sum to 1 within 1e-9; they
    are clipped at 0 and renormalized: the result is exactly row-stochastic.
    The result is always included in ``channel`` by construction.
    """
    pairs = tuple(pairs)
    weights = np.array(weights, dtype=float).ravel()
    if not pairs or weights.size != len(pairs):
        raise ValueError("need one weight per deterministic pair")
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    total = float(weights.sum())
    _clipped(weights, "weights must be nonnegative")
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {total!r}, expected 1")
    weights /= weights.sum()  # the total of the clipped weights
    # Summed in pair order: accumulate adds the products one after another,
    # where sum may pair them up.  A zero-weight pair adds +0.0, no change.
    products = _products(channel, pairs, n_outputs)
    return StochasticMatrix(np.add.accumulate(weights[:, None, None] * products)[-1])


def best_error_probability(
    channel: StochasticMatrix,
    n_messages: int,
    block_length: int,
    cap: int = ENUMERATION_CAP,
) -> float:
    """Exact minimum average error probability over all deterministic codebooks.

    Minimizes over every codebook of ``n_messages`` input sequences of the
    given block length on the memoryless extension of the channel, decoding by
    maximum likelihood with uniform messages (ties resolved toward the
    lowest message index, which does not change the achieved minimum).
    Relabelling the messages leaves the correct-decoding mass unchanged and
    a repeated sequence adds none, so at most one codebook per set of
    ``min(n_messages, n_seq)`` distinct sequences is evaluated.  ``cap``
    still bounds the count of ordered codebooks, ``n_seq**n_messages``, and
    also the extension's ``(n_inputs * n_outputs)**block_length`` entries,
    before the extension is built.
    """
    n_messages = _checked_count(n_messages, "n_messages")
    block_length = _checked_count(block_length, "block_length")
    _check_count(((channel.n_inputs, block_length * n_messages),), cap, "codebooks")
    _check_count(((channel.entries.size, block_length),), cap, "extension entries")

    extension = channel.entries
    for _ in range(block_length - 1):
        extension = np.kron(extension, channel.entries)

    best_correct, _ = _best_codebook(extension, n_messages)
    error = 1.0 - best_correct / n_messages
    return float(min(1.0, max(0.0, error)))


def to_json_dict(channel: StochasticMatrix) -> dict:
    """JSON object for a channel file: {"type": "dmc", "matrix": [[...]]}."""
    return {"type": "dmc", "matrix": channel.entries.tolist()}


def from_json_dict(obj: dict) -> StochasticMatrix:
    if obj.get("type") != "dmc":
        raise ValueError("expected a document with type 'dmc'")
    return StochasticMatrix(_number_array(_required(obj, "matrix", "dmc document"), "matrix"))


def witness_to_json_dict(witness: InclusionWitness) -> dict:
    return {
        "weights": np.asarray(witness.weights, dtype=float).tolist(),
        "pairs": [
            {"input_map": list(p.input_map), "output_map": list(p.output_map)}
            for p in witness.pairs
        ],
    }


def witness_from_json_dict(obj: dict) -> InclusionWitness:
    """Witness from its JSON object; ValueError or TypeError names the bad field."""
    entries = obj.get("pairs")
    if not isinstance(entries, (list, tuple)):
        raise ValueError("witness pairs must be a list of objects with input_map and output_map")
    pairs = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"witness pairs[{index}] must be an object with input_map and output_map")
        for key in ("input_map", "output_map"):
            if not isinstance(entry.get(key), (list, tuple)):
                raise ValueError(f"witness pairs[{index}].{key} must be a list of indices")
        pairs.append(DeterministicPair(tuple(entry["input_map"]), tuple(entry["output_map"])))
    weights = _number_array(obj.get("weights"), "witness weights").astype(float)
    if weights.ndim != 1:
        raise ValueError("witness weights must be a 1-D list of numbers")
    if weights.size != len(pairs):
        raise ValueError("witness weights and pairs disagree in length")
    return InclusionWitness(pairs=tuple(pairs), weights=weights, residual=0.0)
