"""Instance-group sharding for the column-native trace simulator.

:func:`repro.sim.scale.simulate_columns` sweeps each (round, hop
level) batch with one segmented Lindley pass per instance segment.
Those segments are independent across instances *within* a level, and
the cross-level departure frontier (:class:`_History`) is keyed per
instance — so the whole causal sweep decomposes over any fixed
partition of the instances.  This module owns that decomposition:

* :class:`ScaleShardPlan` — a deterministic instance -> shard map,
  built once from the scenario + schedule and **independent of the
  worker count** (the same plan drives ``jobs=1`` and ``jobs=N``);
* :class:`_ShardSim` — one shard's private sweep state: its own
  departure-frontier history, visit log, and causal/measurement RNG
  streams;
* the executors — a serial loop and a process pool whose workers
  attach the scenario via :func:`repro.experiments.shm.publish_arrays`
  / ``attach_arrays`` snapshots and exchange per-level batches through
  one shared-memory scratch block (no column pickling);
* :func:`merge_shard_measurements` — the deterministic reduction of
  per-shard statistics back into whole-run columns.

Determinism contract
--------------------
``simulate_columns(jobs=N)`` is byte-identical to ``jobs=1`` for the
same seed at any ``N`` because every float is produced and reduced
identically on both paths:

1. the shard plan and the per-shard ``SeedSequence`` sub-streams are
   functions of (scenario, schedule, seed) only;
2. each level batch is stably partitioned by shard id *before* the
   executor sees it, so every shard receives the same sub-batch in the
   same order on both paths;
3. each shard's services come from its own generator, consumed in the
   shard's own (level, sorted-batch) order;
4. per-packet sojourn sums — the only statistic whose support spans
   shards — are reduced in ascending shard-id order, fixing the float
   addition order (per-instance statistics have disjoint support, so
   their merge order cannot matter).

Serial fallback
---------------
The process executor is used only when ``jobs >= 2``, the plan has at
least two shards, and there is at least one packet to simulate.  When
worker processes cannot start (no POSIX shared memory, seccomp
sandboxes, a worker dying before its ready handshake) the engine
degrades to the serial executor, which computes the identical result,
and says so with a :class:`RuntimeWarning` naming the failure.
Workers are spawn-safe: the worker entry point is a module-level
function and every payload (handle, seed sequences, scratch name)
pickles under any multiprocessing start method.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.arrays import ScenarioArrays, ScheduleArrays
from repro.exceptions import SimulationError, ValidationError
from repro.sim.kernels import segmented_lindley, segmented_maximum_accumulate

__all__ = [
    "DEFAULT_NUM_SHARDS",
    "ScaleShardPlan",
    "merge_shard_measurements",
    "open_shard_executor",
    "partition_by_shard",
]

#: Shards per plan before clamping to the instance count.  Fixed (not
#: CPU-derived) so the plan — and therefore the RNG stream layout and
#: every simulated float — is a function of the scenario alone.
DEFAULT_NUM_SHARDS = 16

#: Bytes per packet slot in the scratch block: pkt i8 + inst i8 +
#: arrival f8 + departure f8.
_SCRATCH_BYTES_PER_SLOT = 32


@dataclass(frozen=True)
class ScaleShardPlan:
    """Deterministic partition of the service instances into shards.

    ``shard_of_inst[i]`` is the shard owning instance ``i``.  The plan
    is hop-level-consistent by construction — an instance belongs to
    one shard at every chain position — which is what lets each shard
    keep a private departure-frontier history across rounds.
    """

    num_shards: int
    shard_of_inst: np.ndarray

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValidationError(
                f"num_shards must be >= 1, got {self.num_shards!r}"
            )

    @classmethod
    def build(
        cls,
        arrays: ScenarioArrays,
        sched: ScheduleArrays,
        num_shards: Optional[int] = None,
    ) -> "ScaleShardPlan":
        """Balance instances over shards by scheduled offered rate.

        Instances are ranked by the total effective rate of their
        scheduled requests (the packet-volume proxy for sweep work)
        and dealt snake-wise over the shards, so heavy and light
        instances spread evenly.  Ties break on instance id; the
        result depends only on (scenario, schedule, ``num_shards``).
        """
        num_instances = int(arrays.num_instances)
        shards = DEFAULT_NUM_SHARDS if num_shards is None else int(num_shards)
        shards = max(1, min(shards, max(num_instances, 1)))
        weights = np.bincount(
            np.asarray(sched.inst, dtype=np.int64),
            weights=np.asarray(arrays.eff_rate, dtype=np.float64)[sched.req],
            minlength=num_instances,
        )
        order = np.lexsort(
            (np.arange(num_instances, dtype=np.int64), -weights)
        )
        ranks = np.arange(num_instances, dtype=np.int64)
        pos = ranks % shards
        snake = np.where((ranks // shards) % 2 == 0, pos, shards - 1 - pos)
        shard_of_inst = np.empty(num_instances, dtype=np.int64)
        shard_of_inst[order] = snake
        return cls(num_shards=shards, shard_of_inst=shard_of_inst)


def partition_by_shard(
    shard_ids: np.ndarray, num_shards: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable partition of one level batch by shard id.

    Returns ``(order, bounds)``: ``order`` permutes the batch so shard
    ``s`` occupies ``[bounds[s], bounds[s + 1])``, preserving the
    relative order of entries within each shard.  Both executors
    receive the batch through this exact permutation, which is one of
    the byte-identity legs of the determinism contract.
    """
    if num_shards == 1:
        return (
            np.arange(shard_ids.size, dtype=np.int64),
            np.asarray([0, shard_ids.size], dtype=np.int64),
        )
    order = np.argsort(shard_ids, kind="stable")
    bounds = np.searchsorted(
        shard_ids[order], np.arange(num_shards + 1, dtype=np.int64)
    )
    return order, bounds


class _History:
    """Departure frontier of every causal pass, per instance.

    Stores (instance, arrival, running-max departure) of all packets
    already swept, sorted by ``instance * span + arrival`` so one
    global ``searchsorted`` answers "latest backlog this arrival sees
    at its instance" for a whole level at once.  Under sharding each
    shard keeps its own history — instances never cross shards, so the
    per-shard frontiers partition the global one exactly.
    """

    def __init__(self, span: float) -> None:
        self._span = span
        self._keys = np.empty(0, dtype=np.float64)
        self._inst = np.empty(0, dtype=np.int64)
        self._dep_cummax = np.empty(0, dtype=np.float64)

    def key_of(self, inst: np.ndarray, t: np.ndarray) -> np.ndarray:
        return inst.astype(np.float64) * self._span + t

    def waits(self, inst: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Residual backlog each (instance, time) arrival queues behind."""
        if not self._keys.size:
            return np.zeros(t.shape, dtype=np.float64)
        idx = np.searchsorted(self._keys, self.key_of(inst, t), "right") - 1
        safe = np.maximum(idx, 0)
        valid = (idx >= 0) & (self._inst[safe] == inst)
        return np.where(
            valid, np.clip(self._dep_cummax[safe] - t, 0.0, None), 0.0
        )

    def record(
        self, inst: np.ndarray, t: np.ndarray, dep: np.ndarray
    ) -> None:
        """Merge one swept batch (already (instance, time)-sorted)."""
        keys = np.concatenate([self._keys, self.key_of(inst, t)])
        all_inst = np.concatenate([self._inst, inst])
        all_dep = np.concatenate([self._dep_cummax, dep])
        order = np.argsort(keys, kind="stable")
        self._keys = keys[order]
        self._inst = all_inst[order]
        self._dep_cummax = segmented_maximum_accumulate(
            all_dep[order], self._inst
        )


class _ShardMeasure(NamedTuple):
    """One shard's measurement-sweep sums, ready for the merge.

    Per-packet sojourn sums travel compressed (``pkt_idx`` is the
    sorted unique packet ids this shard's instances served); the
    per-instance columns are full length but zero outside the shard's
    instance set.
    """

    pkt_idx: np.ndarray
    pkt_sums: np.ndarray
    arrivals: np.ndarray
    departures: np.ndarray
    sojourn_done: np.ndarray
    busy: np.ndarray


class _ShardSim:
    """One shard's private causal-sweep and measurement state."""

    def __init__(
        self,
        mu_inst: np.ndarray,
        horizon: float,
        sweep_seq: np.random.SeedSequence,
        measure_seq: np.random.SeedSequence,
    ) -> None:
        self._mu = mu_inst
        self._horizon = horizon
        self._sweep_rng = np.random.default_rng(sweep_seq)
        self._measure_rng = np.random.default_rng(measure_seq)
        self._history = _History(span=horizon * (1.0 + 1e-9) + 1.0)
        self._m_inst: List[np.ndarray] = []
        self._m_arr: List[np.ndarray] = []
        self._m_pkt: List[np.ndarray] = []

    def sweep(
        self, pkt: np.ndarray, inst: np.ndarray, t: np.ndarray
    ) -> np.ndarray:
        """Sweep one level sub-batch; departures in input order."""
        order = np.lexsort((t, inst))
        b_inst = inst[order]
        b_t = t[order]
        services = self._sweep_rng.standard_exponential(
            b_t.size
        ) / self._mu[b_inst]
        waits = self._history.waits(b_inst, b_t)
        dep = segmented_lindley(b_t + waits, services, b_inst)
        self._m_inst.append(b_inst)
        self._m_arr.append(b_t)
        self._m_pkt.append(pkt[order])
        self._history.record(b_inst, b_t, dep)
        out = np.empty_like(dep)
        out[order] = dep
        return out

    def measure(self, num_instances: int, generated: int) -> _ShardMeasure:
        """Full-load measurement pass over this shard's visit log."""
        if not self._m_inst:
            return _ShardMeasure(
                pkt_idx=np.empty(0, dtype=np.int64),
                pkt_sums=np.empty(0, dtype=np.float64),
                arrivals=np.zeros(num_instances, dtype=np.int64),
                departures=np.zeros(num_instances, dtype=np.int64),
                sojourn_done=np.zeros(num_instances, dtype=np.float64),
                busy=np.zeros(num_instances, dtype=np.float64),
            )
        all_inst = np.concatenate(self._m_inst)
        all_arr = np.concatenate(self._m_arr)
        all_pkt = np.concatenate(self._m_pkt)
        order = np.lexsort((all_arr, all_inst))
        all_inst = all_inst[order]
        all_arr = all_arr[order]
        all_pkt = all_pkt[order]
        services = self._measure_rng.standard_exponential(
            all_arr.size
        ) / self._mu[all_inst]
        dep = segmented_lindley(all_arr, services, all_inst)
        sojourns = dep - all_arr
        pkt_full = np.bincount(
            all_pkt, weights=sojourns, minlength=generated
        )
        pkt_idx = np.flatnonzero(pkt_full)
        arrivals = np.bincount(all_inst, minlength=num_instances)
        done = dep < self._horizon
        departures = np.bincount(all_inst[done], minlength=num_instances)
        sojourn_done = np.bincount(
            all_inst[done], weights=sojourns[done], minlength=num_instances
        )
        overlap = np.clip(
            np.minimum(dep, self._horizon) - (dep - services), 0.0, None
        )
        busy = np.bincount(
            all_inst, weights=overlap, minlength=num_instances
        )
        return _ShardMeasure(
            pkt_idx=pkt_idx,
            pkt_sums=pkt_full[pkt_idx],
            arrivals=arrivals,
            departures=departures,
            sojourn_done=sojourn_done,
            busy=busy,
        )


def merge_shard_measurements(
    tagged: Iterable[Tuple[int, _ShardMeasure]],
    generated: int,
    num_instances: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reduce per-shard measurement sums into whole-run columns.

    ``tagged`` is ``(shard_id, measure)`` pairs in **any** order — the
    reduction sorts by shard id first, so the float addition order of
    the cross-shard per-packet sojourn sums is fixed regardless of
    which worker answered first (the merge-order invariance the
    Hypothesis suite pins).  Returns ``(sojourn_sums, arrivals,
    departures, sojourn_done, busy)``.
    """
    sojourn_sums = np.zeros(generated, dtype=np.float64)
    arrivals = np.zeros(num_instances, dtype=np.int64)
    departures = np.zeros(num_instances, dtype=np.int64)
    sojourn_done = np.zeros(num_instances, dtype=np.float64)
    busy = np.zeros(num_instances, dtype=np.float64)
    for _, m in sorted(tagged, key=lambda kv: kv[0]):
        sojourn_sums[m.pkt_idx] += m.pkt_sums
        arrivals += m.arrivals
        departures += m.departures
        sojourn_done += m.sojourn_done
        busy += m.busy
    return sojourn_sums, arrivals, departures, sojourn_done, busy


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------


class _ScratchLanes(NamedTuple):
    pkt: np.ndarray
    inst: np.ndarray
    t: np.ndarray
    dep: np.ndarray


def _scratch_lanes(block, capacity: int) -> _ScratchLanes:
    """The four per-packet lanes of one scratch block, as views."""
    i8, f8 = np.dtype(np.int64), np.dtype(np.float64)
    return _ScratchLanes(
        pkt=np.ndarray(capacity, dtype=i8, buffer=block.buf, offset=0),
        inst=np.ndarray(
            capacity, dtype=i8, buffer=block.buf, offset=8 * capacity
        ),
        t=np.ndarray(
            capacity, dtype=f8, buffer=block.buf, offset=16 * capacity
        ),
        dep=np.ndarray(
            capacity, dtype=f8, buffer=block.buf, offset=24 * capacity
        ),
    )


class _SerialShardExecutor:
    """In-process executor: the reference semantics of the sharded sweep."""

    def __init__(
        self,
        arrays: ScenarioArrays,
        plan: ScaleShardPlan,
        horizon: float,
        sweep_seqs: Sequence[np.random.SeedSequence],
        measure_seqs: Sequence[np.random.SeedSequence],
        generated: int,
    ) -> None:
        mu = arrays.mu_inst.astype(np.float64, copy=False)
        self._num_instances = int(arrays.num_instances)
        self._generated = int(generated)
        self._sims = [
            _ShardSim(mu, horizon, sweep_seqs[s], measure_seqs[s])
            for s in range(plan.num_shards)
        ]

    def sweep(
        self,
        pkt: np.ndarray,
        inst: np.ndarray,
        t: np.ndarray,
        bounds: np.ndarray,
    ) -> np.ndarray:
        dep = np.empty(t.size, dtype=np.float64)
        for s, sim in enumerate(self._sims):
            lo, hi = int(bounds[s]), int(bounds[s + 1])
            if lo == hi:
                continue
            dep[lo:hi] = sim.sweep(pkt[lo:hi], inst[lo:hi], t[lo:hi])
        return dep

    def measure(self) -> List[Tuple[int, _ShardMeasure]]:
        return [
            (s, sim.measure(self._num_instances, self._generated))
            for s, sim in enumerate(self._sims)
        ]

    def close(self) -> None:
        pass


class _WorkerStartupError(RuntimeError):
    """A shard worker died before its ready handshake."""


def _shard_worker(
    conn,
    handle,
    owned: List[Tuple[int, np.random.SeedSequence, np.random.SeedSequence]],
    scratch_name: str,
    capacity: int,
    horizon: float,
) -> None:
    """Entry point of one shard worker process (spawn-safe).

    Attaches the published scenario and the scratch block, builds the
    owned :class:`_ShardSim` instances, then serves ``sweep`` /
    ``measure`` requests until ``close``.  Any exception is reported
    back over the pipe instead of dying silently.
    """
    block = None
    try:
        from multiprocessing import shared_memory

        from repro.experiments.shm import attach_arrays

        arrays = attach_arrays(handle)
        mu = arrays.mu_inst.astype(np.float64, copy=False)
        num_instances = int(arrays.num_instances)
        # Attaching re-registers the block with the resource tracker;
        # workers are direct children sharing the master's tracker, so
        # the re-registration is idempotent and the master's unlink
        # balances it — unregistering here would double-remove.
        block = shared_memory.SharedMemory(name=scratch_name)
        lanes = _scratch_lanes(block, capacity)
        sims = {
            sid: _ShardSim(mu, horizon, sweep_seq, measure_seq)
            for sid, sweep_seq, measure_seq in owned
        }
        conn.send(("ready",))
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "sweep":
                for sid, lo, hi in msg[1]:
                    lanes.dep[lo:hi] = sims[sid].sweep(
                        lanes.pkt[lo:hi], lanes.inst[lo:hi], lanes.t[lo:hi]
                    )
                conn.send(("ok",))
            elif op == "measure":
                conn.send(
                    (
                        "measure",
                        [
                            (sid, sims[sid].measure(num_instances, capacity))
                            for sid in sorted(sims)
                        ],
                    )
                )
            elif op == "close":
                break
            else:  # pragma: no cover - protocol misuse
                raise SimulationError(f"unknown shard op {op!r}")
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        pass
    except Exception:  # pragma: no cover - exercised via dead-worker paths
        import traceback

        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        try:
            if block is not None:
                block.close()
        except Exception:
            pass
        try:
            conn.close()
        except Exception:
            pass


class _ProcessShardExecutor:
    """Worker-pool executor: shards served by long-lived processes.

    Worker ``w`` owns shards ``s`` with ``s % workers == w``.  Level
    batches travel through one shared-memory scratch block (four lanes:
    packet id, instance, arrival, departure) — per level the master
    writes the partitioned batch once, sends each worker its shard
    segment offsets, and reads the departure lane back after the acks.
    The scenario itself is attached zero-copy from a
    :func:`~repro.experiments.shm.publish_arrays` snapshot.
    """

    def __init__(
        self,
        arrays: ScenarioArrays,
        plan: ScaleShardPlan,
        horizon: float,
        sweep_seqs: Sequence[np.random.SeedSequence],
        measure_seqs: Sequence[np.random.SeedSequence],
        generated: int,
        workers: int,
        start_method: Optional[str] = None,
    ) -> None:
        import multiprocessing
        from multiprocessing import shared_memory

        from repro.experiments.shm import publish_arrays

        self._procs: List[object] = []
        self._conns: List[object] = []
        self._scratch = None
        self._handle = None
        self._capacity = int(generated)
        self._num_shards = plan.num_shards
        self._workers = workers
        try:
            ctx = multiprocessing.get_context(start_method)
            self._handle = publish_arrays(arrays)
            self._scratch = shared_memory.SharedMemory(
                create=True,
                size=max(_SCRATCH_BYTES_PER_SLOT * self._capacity, 1),
            )
            self._lanes = _scratch_lanes(self._scratch, self._capacity)
            for w in range(workers):
                owned = [
                    (s, sweep_seqs[s], measure_seqs[s])
                    for s in range(plan.num_shards)
                    if s % workers == w
                ]
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_shard_worker,
                    args=(
                        child,
                        self._handle,
                        owned,
                        self._scratch.name,
                        self._capacity,
                        horizon,
                    ),
                    daemon=True,
                )
                proc.start()
                child.close()
                self._procs.append(proc)
                self._conns.append(parent)
            for conn in self._conns:
                try:
                    msg = conn.recv()
                except EOFError as exc:
                    raise _WorkerStartupError(
                        "shard worker exited before ready"
                    ) from exc
                if msg[0] != "ready":
                    raise _WorkerStartupError(
                        msg[1] if len(msg) > 1 else "worker startup failed"
                    )
        except Exception:
            self.close()
            raise

    def _recv(self, conn):
        try:
            msg = conn.recv()
        except EOFError as exc:
            raise SimulationError(
                "scale shard worker died mid-run (killed or crashed); "
                "re-run with jobs=1 for the serial path"
            ) from exc
        if msg[0] == "error":
            raise SimulationError(f"scale shard worker failed:\n{msg[1]}")
        return msg

    def sweep(
        self,
        pkt: np.ndarray,
        inst: np.ndarray,
        t: np.ndarray,
        bounds: np.ndarray,
    ) -> np.ndarray:
        n = t.size
        if n > self._capacity:  # pragma: no cover - defensive
            raise SimulationError(
                f"level batch of {n} exceeds scratch capacity "
                f"{self._capacity}"
            )
        self._lanes.pkt[:n] = pkt
        self._lanes.inst[:n] = inst
        self._lanes.t[:n] = t
        busy = []
        for w, conn in enumerate(self._conns):
            segs = [
                (s, int(bounds[s]), int(bounds[s + 1]))
                for s in range(w, self._num_shards, self._workers)
                if bounds[s] != bounds[s + 1]
            ]
            if segs:
                conn.send(("sweep", segs))
                busy.append(conn)
        for conn in busy:
            self._recv(conn)
        return self._lanes.dep[:n].copy()

    def measure(self) -> List[Tuple[int, _ShardMeasure]]:
        for conn in self._conns:
            conn.send(("measure",))
        tagged: List[Tuple[int, _ShardMeasure]] = []
        for conn in self._conns:
            tagged.extend(self._recv(conn)[1])
        return tagged

    def close(self) -> None:
        from repro.experiments.shm import unpublish_arrays

        for conn in self._conns:
            try:
                conn.send(("close",))
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=10)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=1)
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
        self._procs, self._conns = [], []
        self._lanes = None
        if self._scratch is not None:
            try:
                self._scratch.close()
                self._scratch.unlink()
            except Exception:
                pass
            self._scratch = None
        if self._handle is not None:
            unpublish_arrays(self._handle)
            self._handle = None


def open_shard_executor(
    arrays: ScenarioArrays,
    plan: ScaleShardPlan,
    horizon: float,
    sweep_seqs: Sequence[np.random.SeedSequence],
    measure_seqs: Sequence[np.random.SeedSequence],
    generated: int,
    jobs: Optional[int] = None,
    start_method: Optional[str] = None,
):
    """Build the executor for one run; pair with ``.close()``.

    ``jobs`` of ``None``/``1`` runs serially; ``0`` auto-detects CPUs
    (:func:`repro.experiments.montecarlo.resolve_jobs`); ``N >= 2``
    starts ``min(N, num_shards)`` workers.  Single-shard plans, empty
    runs and platforms where workers cannot start all fall back to the
    serial executor, which computes the identical result; a failed
    worker start is reported as a :class:`RuntimeWarning`.
    """
    from repro.experiments.montecarlo import resolve_jobs

    workers = 1 if jobs is None else resolve_jobs(jobs)
    workers = min(workers, plan.num_shards)
    if workers > 1 and generated > 0:
        try:
            return _ProcessShardExecutor(
                arrays,
                plan,
                horizon,
                sweep_seqs,
                measure_seqs,
                generated,
                workers,
                start_method,
            )
        except (
            OSError,
            ValueError,
            PermissionError,
            ImportError,
            _WorkerStartupError,
        ) as exc:
            warnings.warn(
                f"shard workers failed to start ({type(exc).__name__}: "
                f"{exc}); simulating serially",
                RuntimeWarning,
                stacklevel=2,
            )
    return _SerialShardExecutor(
        arrays, plan, horizon, sweep_seqs, measure_seqs, generated
    )
