"""Canonical content hashing of campaign inputs.

Every artifact the result store memoises is a pure function of a small
set of inputs: the netlist structure, the fault universe (in order --
artifacts are order-aligned with it), the vector universe, the
evaluation method and the remaining campaign parameters.  Every backend
is bit-identical, so the execution backend is not part of a key.  This
module turns each of those inputs into a stable hex digest and combines
them into a :class:`CacheKey`.

Digests are *content* hashes: two netlists built independently by the
same builder hash equal (the compiled CSR arrays plus the interned net
names are hashed, not object identities), while any structural
mutation, fault reorder, pin swap or constraint change produces a new
digest.  The key carries a schema version tag
(:data:`SCHEMA_VERSION`); bumping it invalidates every stored artifact
at once, which is how on-disk layout changes stay safe.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.gates.memo import identity_memo

#: Version tag of the key schema *and* the on-disk artifact layout.
#: Part of every key digest and every provenance record: bump it when
#: either changes and all previously stored artifacts become invisible
#: (stale entries are simply never hit again).
SCHEMA_VERSION = 4


def _hasher() -> "hashlib._Hash":
    return hashlib.sha256()


def digest_bytes(*chunks: bytes) -> str:
    """Hex digest of a byte-chunk sequence (length-prefixed, so chunk
    boundaries are part of the content)."""
    h = _hasher()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _array_chunks(arr: np.ndarray) -> Iterable[bytes]:
    arr = np.ascontiguousarray(arr)
    yield arr.dtype.str.encode()
    yield json.dumps(arr.shape).encode()
    yield arr.tobytes()


def digest_array(arr: np.ndarray) -> str:
    """Digest of one array: dtype, shape and raw bytes."""
    return digest_bytes(*_array_chunks(arr))


def digest_params(**params: object) -> str:
    """Digest of a flat keyword mapping via canonical JSON.

    Values must be JSON-representable (None/bool/int/float/str or
    nested lists/tuples/dicts thereof); key order never matters.
    """
    return digest_bytes(
        json.dumps(params, sort_keys=True, separators=(",", ":"),
                   default=_json_fallback).encode()
    )


def _json_fallback(value: object) -> object:
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, tuple):
        return list(value)
    raise TypeError(f"{value!r} is not canonically hashable")


def digest_netlist(netlist) -> str:
    """Content digest of a gate-level netlist.

    Hashes the compiled CSR arrays (opcodes, operands, levels are
    implied), the interned net-name table and the declared name, so a
    netlist rebuilt from scratch by the same builder digests equal while
    any added gate, rewired pin or renamed net digests differently.
    Compilation is memoised (:func:`repro.gates.compile.compile_netlist`),
    so repeated hashing of a hot netlist is cheap.
    """
    from repro.gates.compile import compile_netlist

    compiled = compile_netlist(netlist)
    chunks = [compiled.name.encode(), "\x00".join(compiled.net_names).encode()]
    for arr in (
        compiled.input_ids,
        compiled.output_ids,
        compiled.base_ops,
        compiled.inverts,
        compiled.operand_offsets,
        compiled.operands,
        compiled.gate_output_ids,
    ):
        chunks.extend(_array_chunks(arr))
    return digest_bytes(*chunks)


def digest_faults(faults: Sequence) -> str:
    """Digest of an *ordered* stuck-at fault list.

    Order matters by design: campaign and dictionary artifacts are
    row-aligned with the fault list, so a reordered universe is a
    different key.  A tuple is immutable, so its digest is memoised on
    its identity: the memoised default universes are hashed once, not
    once per campaign, dictionary and ATPG key of their netlist.
    """
    if isinstance(faults, tuple):
        return _digest_fault_tuple(faults)
    return _digest_fault_seq(faults)


def _digest_fault_seq(faults: Sequence) -> str:
    h = _hasher()
    for fault in faults:
        site = fault.site
        if site.branch is None:
            token = f"{site.net}||-1|{fault.value}"
        else:
            gate, pin = site.branch
            token = f"{site.net}|{gate}|{pin}|{fault.value}"
        h.update(token.encode())
        h.update(b"\x00")
    return h.hexdigest()


# A tuple cannot be weakly referenced, so the memo holds each one it
# keys on (which also keeps its id from being recycled); ``maxsize``
# bounds how many.
_digest_fault_tuple = identity_memo(lambda _faults: (), maxsize=32)(_digest_fault_seq)


def digest_test_space(space) -> str:
    """Digest of a :class:`~repro.gates.engine.TestSpace`: the
    netlist it constrains plus the free/pinned/non-zero structure."""
    return digest_params(
        netlist=digest_netlist(space.netlist),
        free_inputs=list(space.free_inputs),
        constants=[list(c) for c in space.constants],
        nonzero_field=(
            list(space.nonzero_field) if space.nonzero_field is not None else None
        ),
    )


def digest_vector_table(bits: np.ndarray) -> str:
    """Digest of an explicit ``(n_tests, n_inputs)`` 0/1 test table."""
    return digest_array(np.asarray(bits, dtype=np.uint8))


def digest_input_vectors(
    netlist, vectors: Optional[Mapping[str, Union[int, np.ndarray]]]
) -> str:
    """Digest of a campaign's vector set.

    ``None`` (the exhaustive default) digests on the input count alone;
    an explicit mapping digests each primary input's array in netlist
    input order, so the same vectors presented in a differently ordered
    dict digest equal.
    """
    if vectors is None:
        return digest_params(exhaustive=len(netlist.primary_inputs))
    h = _hasher()
    for name in netlist.primary_inputs:
        h.update(name.encode())
        h.update(b"\x00")
        value = vectors.get(name)
        if value is None:
            h.update(b"<absent>")
            continue
        for chunk in _array_chunks(np.asarray(value)):
            h.update(chunk)
    return h.hexdigest()


def digest_cell_library(cell_netlist: str) -> str:
    """Digest of the collapsed faulty-cell library: every equivalence
    class's representative LUT pair, multiplicity and reference flag --
    the functional fault universe of the Table 2 sweeps."""
    from repro.arch.cell import collapsed_cell_library

    return digest_params(
        cell_netlist=cell_netlist,
        groups=[
            [
                list(group.representative.sum_lut),
                list(group.representative.carry_lut),
                group.multiplicity,
                group.is_reference,
            ]
            for group in collapsed_cell_library(cell_netlist)
        ],
    )


@dataclass(frozen=True)
class CacheKey:
    """The identity of one stored artifact.

    ``kind`` names the artifact family (``"campaign"``,
    ``"dictionary"``, ``"coverage"``, ``"compact"``, ``"atpg"``);
    ``netlist``/``universe``/``space`` are the content digests of the
    circuit, fault list and vector universe; ``method`` the evaluation
    path; ``params`` a digest of the remaining campaign parameters
    (chunking, collapse flags, seeds).  ``shard`` is empty for final
    artifacts and the fault-case range ``"lo:hi"`` of a checkpointed
    partial -- the only field a resumable sweep varies.
    """

    kind: str
    netlist: str
    universe: str
    space: str
    method: str
    params: str = ""
    shard: str = ""
    schema: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        for name in ("kind", "netlist", "universe", "space", "method"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise ValueError(f"CacheKey.{name} must be a non-empty string")

    @property
    def digest(self) -> str:
        """The key's single content address (filesystem entry name)."""
        return digest_bytes(
            "|".join(
                (
                    f"v{self.schema}",
                    self.kind,
                    self.netlist,
                    self.universe,
                    self.space,
                    self.method,
                    self.params,
                    self.shard,
                )
            ).encode()
        )

    def with_shard(self, lo: int, hi: int) -> "CacheKey":
        """The same key scoped to the checkpoint shard ``[lo, hi)``:
        ``shard="lo:hi"``."""
        return replace(self, shard=f"{lo}:{hi}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "netlist": self.netlist,
            "universe": self.universe,
            "space": self.space,
            "method": self.method,
            "params": self.params,
            "shard": self.shard,
            "schema": self.schema,
        }


__all__ = [
    "SCHEMA_VERSION",
    "CacheKey",
    "digest_array",
    "digest_bytes",
    "digest_cell_library",
    "digest_faults",
    "digest_input_vectors",
    "digest_netlist",
    "digest_params",
    "digest_test_space",
    "digest_vector_table",
]
