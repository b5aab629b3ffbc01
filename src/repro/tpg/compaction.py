"""Test-set compaction over fault dictionaries.

Two classical reductions, both exact with respect to the dictionary:

* :func:`greedy_cover` -- the greedy set-cover heuristic: repeatedly
  keep the vector detecting the most still-uncovered faults until every
  detectable fault is covered.  Scores are kept incrementally on the
  dictionary's own fault-major words: they start as per-vector
  detection counts, and each round subtracts the rows of the faults it
  newly covers, so every row is unpacked at most twice and the n = 8
  multiplier's 65536-vector universe compacts in tens of milliseconds.
  Ties break to the lowest vector index, making the result
  deterministic.
* :func:`reverse_compact` -- reverse-order pass over an *existing* test
  set (e.g. the discovery-ordered ATPG vectors): walking newest-first,
  drop every vector whose detected faults are all detected by the
  remaining kept vectors.  Never increases coverage loss; classically
  effective because late ATPG vectors target single hard faults that
  earlier vectors often cover incidentally.

The product is a :class:`CompactTestSet`: explicit input bit rows (in
netlist input order), the per-fault detection claim, and per-vector
*marginal coverage provenance* -- how many new faults each kept vector
contributed at selection time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.gates.engine import unpack_bits
from repro.gates.faults import StuckAtFault
from repro.tpg.dictionary import FaultDictionary, TestSpace, inputs_from_bits

#: Fault rows unpacked per block while scoring (bounds the uint8
#: working set at ``_FAULT_BLOCK * n_vectors`` bytes).
_FAULT_BLOCK = 256


@dataclass
class GreedyCover:
    """Outcome of one greedy set-cover run.

    ``order`` lists the kept universe vectors in selection order;
    ``marginal[i]`` is the number of previously-uncovered faults
    ``order[i]`` contributed (the per-vector provenance);
    ``detected`` is the per-fault claim of the kept set -- identical to
    the dictionary's own ``detected`` by construction.
    """

    order: Tuple[int, ...]
    marginal: Tuple[int, ...]
    detected: np.ndarray


def _row_counts(dictionary: FaultDictionary, rows: np.ndarray) -> np.ndarray:
    """Per-vector count of the given fault rows that detect it."""
    counts = np.zeros(dictionary.n_vectors, dtype=np.int64)
    for lo in range(0, len(rows), _FAULT_BLOCK):
        block = dictionary.words[rows[lo:lo + _FAULT_BLOCK]]
        # A block sums at most _FAULT_BLOCK ones per vector: uint16 is
        # exact, and its accumulator is a quarter the width of int64.
        counts += unpack_bits(block, dictionary.n_vectors).sum(axis=0, dtype=np.uint16)
    return counts


def greedy_cover(dictionary: FaultDictionary) -> GreedyCover:
    """Greedy set-cover of the dictionary's detectable faults.

    ``scores[v]`` is always the number of still-uncovered faults vector
    ``v`` detects: each round keeps the lowest-index maximum and
    subtracts the rows of the faults it newly covers.
    """
    remaining = dictionary.detected
    scores = _row_counts(dictionary, np.flatnonzero(remaining))
    order: List[int] = []
    marginal: List[int] = []
    while remaining.any():
        best = int(np.argmax(scores))
        gain = int(scores[best])
        if gain == 0:  # pragma: no cover - detectable faults always score
            break
        vector = dictionary.vector_base + best
        newly = np.flatnonzero(remaining & dictionary.column_bits(vector).astype(bool))
        order.append(vector)
        marginal.append(gain)
        remaining[newly] = False
        scores -= _row_counts(dictionary, newly)
    return GreedyCover(tuple(order), tuple(marginal), dictionary.covered_by(order))


def reverse_compact(
    dictionary: FaultDictionary, order: Optional[Sequence[int]] = None
) -> Tuple[int, ...]:
    """Reverse-order compaction of an ordered test set.

    ``order`` defaults to every dictionary vector in index order (the
    natural choice when the dictionary spans an ATPG-discovered test
    table).  Returns the kept vectors, original order preserved; the
    kept set detects exactly the faults the full order did.  Each
    vector's detection column is read straight from the fault-major
    words (:meth:`FaultDictionary.column_bits`), which rejects vectors
    outside the dictionary; a vector listed twice is rejected too.
    """
    base = dictionary.vector_base
    if order is None:
        order = range(base, base + dictionary.n_vectors)
    order = list(order)
    repeated = [v for v, n in Counter(order).items() if n > 1]
    if repeated:
        raise SimulationError(f"vector {repeated[0]} appears more than once in the order")

    def bits_of(v: int) -> np.ndarray:
        return dictionary.column_bits(v).astype(np.int64)

    if len(order) == dictionary.n_vectors and order == list(
        range(base, base + dictionary.n_vectors)
    ):
        counts = dictionary.detections_per_fault()
    else:
        counts = np.zeros(dictionary.n_faults, dtype=np.int64)
        for v in order:
            counts += bits_of(v)
    kept = set(order)
    for v in reversed(order):
        bits = bits_of(v)
        hit = bits != 0
        if not hit.any() or np.all(counts[hit] >= 2):
            counts -= bits
            kept.discard(v)
    return tuple(v for v in order if v in kept)


@dataclass
class CompactTestSet:
    """A compact per-unit test set with full provenance.

    ``vectors`` holds one row of primary-input bits per kept test (in
    the netlist's declared input order, constants included), ``detected``
    the per-fault detection claim over ``faults``, and ``marginal`` the
    greedy provenance: how many new faults each vector contributed when
    it was selected.  ``source`` records the generation path
    (``"greedy-dictionary"`` or ``"atpg+greedy"``).
    """

    netlist_name: str
    input_names: Tuple[str, ...]
    vectors: np.ndarray  # (n_tests, n_inputs) uint8
    faults: Tuple[StuckAtFault, ...]
    detected: np.ndarray  # (n_faults,) bool
    marginal: Tuple[int, ...]
    source: str

    @property
    def n_tests(self) -> int:
        return self.vectors.shape[0]

    @property
    def n_faults(self) -> int:
        return len(self.faults)

    @property
    def detected_count(self) -> int:
        return int(np.sum(self.detected))

    @property
    def coverage(self) -> float:
        return self.detected_count / self.n_faults if self.n_faults else 1.0

    def inputs(self) -> Dict[str, np.ndarray]:
        """Per-input 0/1 arrays, ready for campaign replay."""
        return {
            name: np.ascontiguousarray(self.vectors[:, i])
            for i, name in enumerate(self.input_names)
        }

    def undetected_faults(self) -> List[StuckAtFault]:
        return [f for f, d in zip(self.faults, self.detected) if not d]

    def summary(self) -> str:
        return (
            f"{self.netlist_name}: {self.n_tests} tests cover "
            f"{self.detected_count}/{self.n_faults} faults "
            f"({100.0 * self.coverage:.2f}%, {self.source})"
        )


def compact_from_dictionary(
    dictionary: FaultDictionary, space: TestSpace
) -> CompactTestSet:
    """Greedy-cover a full-universe dictionary into a compact set.

    ``space`` maps the kept universe indices back to input bit rows
    (constants filled in); the deterministic no-RNG path the golden
    emission artefacts use.
    """
    if space.n_vectors != dictionary.n_vectors:
        raise SimulationError(
            f"dictionary spans {dictionary.n_vectors} vectors, space "
            f"{space.n_vectors}; compaction needs the full universe"
        )
    cover = greedy_cover(dictionary)
    return CompactTestSet(
        netlist_name=dictionary.netlist_name,
        input_names=tuple(space.netlist.primary_inputs),
        vectors=space.bits_from_indices(cover.order),
        faults=dictionary.faults,
        detected=cover.detected,
        marginal=cover.marginal,
        source="greedy-dictionary",
    )


__all__ = [
    "CompactTestSet",
    "GreedyCover",
    "compact_from_dictionary",
    "greedy_cover",
    "inputs_from_bits",
    "reverse_compact",
]
