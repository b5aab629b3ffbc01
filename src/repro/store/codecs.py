"""Artifact (de)serialisation of the result store.

Each artifact family the store memoises has one codec: a pair of
functions turning the in-memory object into ``(tag, arrays, meta)`` --
a dict of NumPy arrays bound for one ``.npz`` payload plus a
JSON-representable metadata dict -- and back.  Round-trips are exact:
array dtypes and byte contents are preserved and tuples are restored as
tuples, so a store-loaded artifact merges bit-identically with a
live-built one (the regression ``tests/test_store.py`` pins down).

Fault lists are not serialised at all.  Campaign results, fault
dictionaries and compact test sets are row-aligned with one, but their
key's ``universe`` field is the digest of exactly that ordered list, so
the caller already holds it: the sidecar records only ``n_faults`` and
decoding reuses the caller's tuple (:data:`FAULT_TAGS`).

Imports of the artifact classes happen lazily inside the codec bodies:
the store is a leaf the coverage/tpg/faults layers call into, so a
module-level import here would cycle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError

Arrays = Dict[str, np.ndarray]
Meta = Dict[str, object]


# ----------------------------------------------------------------------
# Equivalence-group packing (shared with the FaultDictionary.save layout)
# ----------------------------------------------------------------------
def pack_groups(groups: Sequence[Tuple[int, ...]]) -> Arrays:
    """Offset/member arrays of the equivalence-class tuples."""
    offsets = np.cumsum([0] + [len(g) for g in groups]).astype(np.int64)
    members = np.array([i for g in groups for i in g] or [], dtype=np.int64)
    return {"group_offsets": offsets, "group_members": members}


def unpack_groups(arrays: Arrays) -> Tuple[Tuple[int, ...], ...]:
    """Inverse of :func:`pack_groups` (tuples of Python ints)."""
    offsets = arrays["group_offsets"].tolist()
    members = arrays["group_members"].tolist()
    return tuple(
        tuple(members[lo:hi]) for lo, hi in zip(offsets[:-1], offsets[1:])
    )


# ----------------------------------------------------------------------
# Codecs, one per artifact family
# ----------------------------------------------------------------------
def encode(value: object) -> Tuple[str, Arrays, Meta]:
    """Dispatch ``value`` to its codec; returns ``(tag, arrays, meta)``."""
    from repro.gates.engine import StuckAtCampaignResult
    from repro.tpg.compaction import CompactTestSet
    from repro.tpg.dictionary import FaultDictionary

    if isinstance(value, StuckAtCampaignResult):
        return _encode_campaign(value)
    if isinstance(value, FaultDictionary):
        return _encode_dictionary(value)
    if isinstance(value, CompactTestSet):
        return _encode_compact(value)
    if isinstance(value, np.ndarray):
        return "ndarray", {"data": value}, {}
    if isinstance(value, dict) and value and all(
        type(v).__name__ == "CoverageStats" for v in value.values()
    ):
        return _encode_coverage(value)
    if _is_case_counts(value):
        return "case_counts", {}, {"counts": [
            [repeat, count, n_correct, {k: list(v) for k, v in per.items()}]
            for repeat, count, n_correct, per in value
        ]}
    if isinstance(value, dict):
        # Plain JSON payload; an ATPG test-table record carries its
        # arrays explicitly under "arrays".
        payload = dict(value)
        arrays = {
            k: np.asarray(v) for k, v in payload.pop("arrays", {}).items()
        }
        return "json", arrays, {"payload": payload}
    raise SimulationError(f"no store codec for {type(value).__name__}")


def decode(
    tag: str, arrays: Arrays, meta: Meta, faults: Optional[Tuple] = None
) -> object:
    """Rebuild an artifact; a fault-bearing tag (:data:`FAULT_TAGS`)
    takes its fault tuple from ``faults`` instead of the payload."""
    if tag in _FAULT_DECODERS:
        return _FAULT_DECODERS[tag](arrays, meta, faults)
    try:
        decoder = _DECODERS[tag]
    except KeyError:
        raise SimulationError(f"unknown stored artifact tag {tag!r}") from None
    return decoder(arrays, meta)


def _is_case_counts(value: object) -> bool:
    if not isinstance(value, list) or not value:
        return False
    head = value[0]
    return (
        isinstance(head, (tuple, list))
        and len(head) == 4
        and isinstance(head[3], dict)
    )


# -- campaign results ---------------------------------------------------
def _encode_campaign(result) -> Tuple[str, Arrays, Meta]:
    arrays: Arrays = {
        "detected": np.asarray(result.detected),
        "first_detected": np.asarray(result.first_detected),
    }
    arrays.update(pack_groups(result.groups))
    meta: Meta = {
        "netlist_name": result.netlist_name,
        "n_faults": len(result.faults),
        "n_vectors": int(result.n_vectors),
        "n_simulated_runs": int(result.n_simulated_runs),
    }
    return "campaign_result", arrays, meta


def _decode_campaign(arrays: Arrays, meta: Meta, faults: Tuple):
    from repro.gates.engine import StuckAtCampaignResult

    return StuckAtCampaignResult(
        netlist_name=str(meta["netlist_name"]),
        faults=faults,
        detected=arrays["detected"],
        first_detected=arrays["first_detected"],
        n_vectors=int(meta["n_vectors"]),
        n_simulated_runs=int(meta["n_simulated_runs"]),
        groups=unpack_groups(arrays),
    )


# -- fault dictionaries -------------------------------------------------
def _encode_dictionary(dictionary) -> Tuple[str, Arrays, Meta]:
    arrays: Arrays = {"words": dictionary.words}
    arrays.update(pack_groups(dictionary.groups))
    meta: Meta = {
        "netlist_name": dictionary.netlist_name,
        "n_faults": len(dictionary.faults),
        "n_vectors": int(dictionary.n_vectors),
        "vector_base": int(dictionary.vector_base),
    }
    return "fault_dictionary", arrays, meta


def _decode_dictionary(arrays: Arrays, meta: Meta, faults: Tuple):
    from repro.tpg.dictionary import FaultDictionary

    return FaultDictionary(
        netlist_name=str(meta["netlist_name"]),
        faults=faults,
        groups=unpack_groups(arrays),
        words=arrays["words"],
        n_vectors=int(meta["n_vectors"]),
        vector_base=int(meta["vector_base"]),
    )


# -- compact test sets --------------------------------------------------
def _encode_compact(compact) -> Tuple[str, Arrays, Meta]:
    arrays: Arrays = {
        "vectors": np.asarray(compact.vectors, dtype=np.uint8),
        "detected": np.asarray(compact.detected, dtype=bool),
    }
    meta: Meta = {
        "netlist_name": compact.netlist_name,
        "n_faults": len(compact.faults),
        "input_names": list(compact.input_names),
        "marginal": [int(m) for m in compact.marginal],
        "source": compact.source,
    }
    return "compact_test_set", arrays, meta


def _decode_compact(arrays: Arrays, meta: Meta, faults: Tuple):
    from repro.tpg.compaction import CompactTestSet

    return CompactTestSet(
        netlist_name=str(meta["netlist_name"]),
        input_names=tuple(str(n) for n in meta["input_names"]),
        vectors=arrays["vectors"],
        faults=faults,
        detected=arrays["detected"],
        marginal=tuple(int(m) for m in meta["marginal"]),
        source=str(meta["source"]),
    )


# -- per-technique coverage stats ---------------------------------------
def _encode_coverage(stats_map) -> Tuple[str, Arrays, Meta]:
    import dataclasses

    return "coverage_stats_map", {}, {
        "order": list(stats_map),
        "stats": {
            name: dataclasses.asdict(stats) for name, stats in stats_map.items()
        },
    }


def _decode_coverage(arrays: Arrays, meta: Meta):
    from repro.coverage.engine import CoverageStats

    return {
        str(name): CoverageStats(**meta["stats"][name])
        for name in meta["order"]
    }


# -- gate-sweep shard counts (plain integers) ---------------------------
def _decode_case_counts(arrays: Arrays, meta: Meta) -> List[Tuple]:
    return [
        (
            int(repeat),
            int(count),
            int(n_correct),
            {str(k): (int(v[0]), int(v[1])) for k, v in per.items()},
        )
        for repeat, count, n_correct, per in meta["counts"]
    ]


#: Decoders of the artifacts row-aligned with a fault list.  The list
#: itself is not stored: the key's ``universe`` digest pins it, so the
#: caller hands back the tuple it digested (``ResultStore.get(faults=)``).
_FAULT_DECODERS = {
    "campaign_result": _decode_campaign,
    "fault_dictionary": _decode_dictionary,
    "compact_test_set": _decode_compact,
}
FAULT_TAGS = frozenset(_FAULT_DECODERS)

_DECODERS = {
    "coverage_stats_map": _decode_coverage,
    "case_counts": _decode_case_counts,
    "ndarray": lambda arrays, meta: arrays["data"],
    "json": lambda arrays, meta: (
        {**meta["payload"], "arrays": arrays} if arrays else dict(meta["payload"])
    ),
}

__all__ = [
    "FAULT_TAGS",
    "decode",
    "encode",
    "pack_groups",
    "unpack_groups",
]
