"""Shared-memory scenario snapshots for the sharded simulator's workers.

:class:`~repro.sim.shard._ProcessShardExecutor` workers all need the
same (possibly million-request)
:class:`~repro.core.arrays.ScenarioArrays`; pickling it into every
worker would copy gigabytes.  This module publishes a scenario's numpy
columns ONCE into one ``multiprocessing.shared_memory`` block (every
column at a recorded, 64-byte aligned offset) and hands workers a tiny
picklable :class:`SharedScenarioHandle`; each worker attaches to the
columns zero-copy and caches the attachment for its lifetime.

There is one backend.  When POSIX shared memory is unavailable,
:func:`publish_arrays` raises, and
:func:`~repro.sim.shard.open_shard_executor` turns that into its serial
fallback with a :class:`RuntimeWarning`.  The publisher unlinks the
block in :func:`unpublish_arrays`; workers unregister their attachment
from the Python 3.11 ``resource_tracker`` (which would otherwise unlink
the block when the *first* worker exits).

An attach in the publishing process returns the original object.
Under the default ``fork`` start method workers inherit that registry
too, so they reuse the parent's columns without mapping the block.
Attached columns are read-only.

The non-array scenario fields travel inside the handle: entity tables
(names/index dicts) are small, and the lazy id views of streamed
scenarios (:class:`~repro.workload.stream.SequentialIds` /
``SequentialIndex``) pickle as a prefix and a count.
``ChainNamesView`` is rebuilt on attach from the shared ``chain_vnf``
column instead of being pickled (it holds an array reference).
"""

from __future__ import annotations

import os
import uuid
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.arrays import ScenarioArrays

__all__ = [
    "SharedScenarioHandle",
    "attach_arrays",
    "publish_arrays",
    "unpublish_arrays",
]

#: The numpy columns shipped through the shared block, in layout order.
_COLUMNS = (
    "M_f", "D_f", "mu_f", "total_demand_f", "instance_offset",
    "inst_vnf", "mu_inst", "A_v", "lambda_r", "P_r", "eff_rate",
    "chain_req", "chain_vnf", "chain_ptr",
)


@dataclass(frozen=True)
class SharedScenarioHandle:
    """Picklable pointer to a published scenario.

    ``block_name`` is the shared-memory block; ``columns`` maps column
    name to ``(offset, dtype-str, shape)`` inside it.  ``meta`` carries
    the small non-array fields; ``token`` identifies the publication
    so a same-process attach returns the original object.
    """

    block_name: str
    columns: Dict[str, Tuple]
    meta: Dict[str, object]
    token: str


#: Publisher-side originals and their blocks: same-process attach
#: short-circuits to the exact object that was published.
_published: Dict[str, Tuple[ScenarioArrays, object]] = {}

#: Worker-side attachments, one per (process, token).
_attached: Dict[str, ScenarioArrays] = {}
#: Keep attached SharedMemory blocks alive for the process lifetime.
_attached_blocks: Dict[str, object] = {}


def _chain_names_meta(arrays: ScenarioArrays):
    from repro.workload.stream import ChainNamesView

    if isinstance(arrays.chain_names, ChainNamesView):
        return ("view",)
    return ("eager", tuple(arrays.chain_names))


def _meta_of(arrays: ScenarioArrays) -> Dict[str, object]:
    return {
        "vnf_names": tuple(arrays.vnf_names),
        "vnf_index": dict(arrays.vnf_index),
        "num_instances": int(arrays.num_instances),
        "node_keys": tuple(arrays.node_keys),
        "node_index": dict(arrays.node_index),
        # Lazy sequence/mapping views pickle small; eager tuples/dicts
        # pickle eagerly (fine at the scales that still use them).
        "request_ids": arrays.request_ids,
        "request_index": arrays.request_index,
        "chain_names": _chain_names_meta(arrays),
        "chain_has_unknown": bool(arrays.chain_has_unknown),
    }


def _assemble(
    meta: Dict[str, object], columns: Dict[str, np.ndarray]
) -> ScenarioArrays:
    chain_names_meta = meta["chain_names"]
    if chain_names_meta[0] == "view":
        from repro.workload.stream import ChainNamesView

        chain_names = ChainNamesView(
            meta["vnf_names"], columns["chain_vnf"]
        )
    else:
        chain_names = chain_names_meta[1]
    return ScenarioArrays(
        vnf_names=meta["vnf_names"],
        vnf_index=meta["vnf_index"],
        M_f=columns["M_f"],
        D_f=columns["D_f"],
        mu_f=columns["mu_f"],
        total_demand_f=columns["total_demand_f"],
        instance_offset=columns["instance_offset"],
        num_instances=meta["num_instances"],
        inst_vnf=columns["inst_vnf"],
        mu_inst=columns["mu_inst"],
        node_keys=meta["node_keys"],
        node_index=meta["node_index"],
        A_v=columns["A_v"],
        request_ids=meta["request_ids"],
        request_index=meta["request_index"],
        lambda_r=columns["lambda_r"],
        P_r=columns["P_r"],
        eff_rate=columns["eff_rate"],
        chain_req=columns["chain_req"],
        chain_vnf=columns["chain_vnf"],
        chain_ptr=columns["chain_ptr"],
        chain_names=chain_names,
        chain_has_unknown=meta["chain_has_unknown"],
    )


def publish_arrays(arrays: ScenarioArrays) -> SharedScenarioHandle:
    """Publish a scenario's columns for zero-copy worker attachment.

    Raises whatever ``multiprocessing.shared_memory`` raises when the
    block cannot be created (typically :class:`OSError`).  Pair every
    publish with :func:`unpublish_arrays`: the block outlives the
    process otherwise.
    """
    from multiprocessing import shared_memory

    token = uuid.uuid4().hex[:12]
    specs: Dict[str, Tuple] = {}
    total = 0
    for name in _COLUMNS:
        col = getattr(arrays, name)
        # 64-byte alignment keeps every column SIMD-friendly in workers.
        offset = -(-total // 64) * 64
        specs[name] = (offset, col.dtype.str, col.shape)
        total = offset + col.nbytes
    # The publisher's pid in the name lets a leak check tell its own
    # segments from those of concurrent runs (and keeps the name within
    # macOS's 31-character limit).
    block = shared_memory.SharedMemory(
        create=True,
        size=max(total, 1),
        name=f"repro_{os.getpid()}_{token}",
    )
    try:
        for name in _COLUMNS:
            offset, dtype, shape = specs[name]
            view = np.ndarray(
                shape, dtype=dtype, buffer=block.buf, offset=offset
            )
            view[...] = getattr(arrays, name)
    except BaseException:
        block.close()
        block.unlink()
        raise
    _published[token] = (arrays, block)
    return SharedScenarioHandle(block.name, specs, _meta_of(arrays), token)


def attach_arrays(handle: SharedScenarioHandle) -> ScenarioArrays:
    """Materialize the published scenario in this process (cached).

    In the publishing process (and its forked children) this returns
    the exact original object; in any other process it maps the shared
    columns read-only and assembles a :class:`ScenarioArrays` around
    them, once per process.
    """
    original = _published.get(handle.token)
    if original is not None:
        return original[0]
    cached = _attached.get(handle.token)
    if cached is not None:
        return cached
    from multiprocessing import shared_memory

    block = shared_memory.SharedMemory(name=handle.block_name)
    try:
        # Python 3.11 registers every attach with the resource
        # tracker, which unlinks the block when ANY process exits;
        # only the publisher may unlink.
        from multiprocessing import resource_tracker

        resource_tracker.unregister(block._name, "shared_memory")
    except Exception:
        pass
    columns = {}
    for name, (offset, dtype, shape) in handle.columns.items():
        view = np.ndarray(shape, dtype=dtype, buffer=block.buf, offset=offset)
        view.flags.writeable = False
        columns[name] = view
    _attached_blocks[handle.token] = block
    arrays = _assemble(handle.meta, columns)
    _attached[handle.token] = arrays
    return arrays


def unpublish_arrays(handle: SharedScenarioHandle) -> None:
    """Release the published block (publisher side; idempotent)."""
    entry = _published.pop(handle.token, None)
    if entry is None:
        return
    block = entry[1]
    try:
        block.close()
        block.unlink()
    except Exception:
        pass
