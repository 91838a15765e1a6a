"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

# Deterministic property tests: the same examples run every time, so a
# green suite stays green regardless of the machine or the run.
settings.register_profile("repro", derandomize=True)
settings.load_profile("repro")

from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.vnf import VNF, VNFCategory


def _shm_segments() -> set:
    """This process's published scenario blocks (``repro.sim.shm``)."""
    prefix = f"repro_{os.getpid()}_"
    return {name for name in os.listdir("/dev/shm") if name.startswith(prefix)}


@pytest.fixture(scope="session", autouse=True)
def shm_leak_guard():
    """Fail the session if it leaves scenario blocks in ``/dev/shm``.

    Every ``publish_arrays`` must be paired with ``unpublish_arrays`` on
    every exit path; an orphaned block outlives the process.
    """
    if not os.path.isdir("/dev/shm"):
        yield
        return
    before = _shm_segments()
    yield
    leaked = sorted(_shm_segments() - before)
    if leaked:
        pytest.fail(f"shared-memory segments leaked by the suite: {leaked}")


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def simple_vnfs() -> list:
    """Three small VNFs with distinct demands and rates."""
    return [
        VNF("fw", demand_per_instance=10.0, num_instances=2,
            service_rate=100.0, category=VNFCategory.SECURITY),
        VNF("nat", demand_per_instance=5.0, num_instances=3,
            service_rate=200.0, category=VNFCategory.GATEWAY),
        VNF("lb", demand_per_instance=8.0, num_instances=1,
            service_rate=150.0, category=VNFCategory.LOAD_BALANCING),
    ]


@pytest.fixture
def simple_chain() -> ServiceChain:
    """A chain visiting all three simple VNFs."""
    return ServiceChain(["fw", "nat", "lb"])


@pytest.fixture
def simple_requests(simple_chain) -> list:
    """Four requests over the simple chain with varied rates."""
    return [
        Request(request_id=f"r{i}", chain=simple_chain,
                arrival_rate=rate, delivery_probability=0.99)
        for i, rate in enumerate([10.0, 20.0, 5.0, 15.0])
    ]


@pytest.fixture
def simple_capacities() -> dict:
    """Node capacities that comfortably fit the simple VNFs."""
    return {"n0": 40.0, "n1": 30.0, "n2": 25.0}
