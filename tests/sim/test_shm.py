"""Shared-memory scenario snapshots: byte-identical round trips."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.arrays import ScenarioArrays
from repro.core.dtypes import LEAN_POLICY
from repro.sim import shm as shm_mod
from repro.sim.shm import attach_arrays, publish_arrays, unpublish_arrays
from repro.workload.generator import WorkloadGenerator
from repro.workload.stream import stream_scenario


@pytest.fixture
def arrays():
    gen = WorkloadGenerator(rng=np.random.default_rng(21))
    w = gen.workload(num_vnfs=6, num_nodes=10, num_requests=25)
    return ScenarioArrays.build(w.vnfs, w.requests, w.capacities)


COLUMNS = shm_mod._COLUMNS


def _publish(arrays):
    try:
        return publish_arrays(arrays)
    except OSError:
        pytest.skip("POSIX shared memory unavailable")


def _attach_as_worker(handle):
    """Attach the way a spawned worker does: without the publisher's
    same-process registry entry, so the shared block is really mapped."""
    entry = shm_mod._published.pop(handle.token)
    try:
        return attach_arrays(handle)
    finally:
        shm_mod._published[handle.token] = entry


def _detach(handle):
    shm_mod._attached.pop(handle.token, None)
    block = shm_mod._attached_blocks.pop(handle.token, None)
    if block is not None:
        block.close()


class TestPublishAttach:
    def test_roundtrip(self, arrays):
        handle = _publish(arrays)
        try:
            # Same-process attach returns the published original.
            assert attach_arrays(handle) is arrays
            try:
                remote = _attach_as_worker(handle)
                assert remote is not arrays
                for name in COLUMNS:
                    np.testing.assert_array_equal(
                        np.asarray(getattr(remote, name)),
                        getattr(arrays, name),
                        err_msg=name,
                    )
                    assert (
                        getattr(remote, name).dtype
                        == getattr(arrays, name).dtype
                    )
                    assert not getattr(remote, name).flags.writeable
                assert tuple(remote.request_ids) == tuple(arrays.request_ids)
                assert remote.vnf_index == arrays.vnf_index
            finally:
                _detach(handle)
        finally:
            unpublish_arrays(handle)

    def test_lean_streamed_scenario_roundtrip(self):
        scn = stream_scenario(
            num_vnfs=6, num_nodes=8, num_requests=40,
            rng=np.random.default_rng(3), dtypes=LEAN_POLICY,
        )
        handle = _publish(scn.arrays)
        try:
            try:
                remote = _attach_as_worker(handle)
                assert remote.index_dtype == np.int32
                assert remote.float_dtype == np.float32
                np.testing.assert_array_equal(
                    np.asarray(remote.chain_vnf), scn.arrays.chain_vnf
                )
                # Lazy views survive the trip.
                assert remote.request_ids[5] == "r5"
                assert remote.request_index["r7"] == 7
                assert remote.chain_names[0] == scn.arrays.chain_names[0]
            finally:
                _detach(handle)
        finally:
            unpublish_arrays(handle)

    def test_unpublish_idempotent(self, arrays):
        handle = _publish(arrays)
        unpublish_arrays(handle)
        unpublish_arrays(handle)

    def test_unpublish_unlinks_block(self, arrays):
        from multiprocessing import shared_memory

        handle = _publish(arrays)
        unpublish_arrays(handle)
        assert handle.token not in shm_mod._published
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.block_name)

    def test_handle_is_small_to_pickle(self, arrays):
        handle = _publish(arrays)
        try:
            blob = pickle.dumps(handle)
            # The whole point: the handle must be orders of magnitude
            # smaller than the pickled scenario.
            assert len(blob) < len(pickle.dumps(arrays)) / 2
        finally:
            unpublish_arrays(handle)
