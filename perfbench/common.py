"""Helpers shared by every workload: timing rules, RSS, provenance.

Everything here is pure bookkeeping over numbers the workloads measure;
nothing calls into ``repro``.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Percentiles a report may quote, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a quoted percentile.
MIN_SAMPLES_BEYOND = 10


def reportable_percentile(n: int, wanted: float) -> Optional[float]:
    """Highest ladder percentile ``<= wanted`` with 10 samples beyond it.

    A percentile ``p`` over ``n`` samples has ``n * (100 - p) / 100``
    samples beyond it; a tail figure resting on fewer than
    :data:`MIN_SAMPLES_BEYOND` of them is noise, so the rule steps down
    the ladder until one qualifies.  ``None`` when even the median does
    not (fewer than 20 samples).
    """
    for p in PERCENTILE_LADDER:
        if p <= wanted and n * (100.0 - p) / 100.0 >= MIN_SAMPLES_BEYOND:
            return p
    return None


def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile."""
    return float(np.percentile(samples, p))


def tail(samples: Sequence[float], wanted: float) -> Tuple[Optional[float], float]:
    """``(percentile used, value)`` under :func:`reportable_percentile`.

    Returns ``(None, nan)`` when the sample is too small for any
    quotable percentile.
    """
    p = reportable_percentile(len(samples), wanted)
    if p is None:
        return None, float("nan")
    return p, percentile(samples, p)


def first_per_id(calls: Iterable[Tuple[str, object]]) -> List:
    """The value of the first call per id, in call order.

    The serving layer calls ``admit`` again for evicted or pending
    chains (re-admissions); only an id's first call is the admission
    decision a new arrival waits for.
    """
    seen = set()
    out = []
    for rid, value in calls:
        if rid not in seen:
            seen.add(rid)
            out.append(value)
    return out


def window_rates(positions: Sequence[int], stamps: Sequence[float], every: int) -> List[float]:
    """Events per second over windows of ``every`` marks.

    ``stamps[j]`` is the wall time at which the event at timeline index
    ``positions[j]`` was handled; window ``i`` spans marks ``i * every``
    to ``(i + 1) * every``.
    """
    out = []
    for lo in range(0, len(stamps) - every, every):
        hi = lo + every
        seconds = stamps[hi] - stamps[lo]
        if seconds > 0:
            out.append((positions[hi] - positions[lo]) / seconds)
    return out


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child.

    ``RUSAGE_CHILDREN`` holds the largest ``ru_maxrss`` over waited-for
    children (the simulator's shard workers), so the sum bounds the
    footprint of the whole workload.  Linux reports KiB.
    """
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    if sys.platform == "darwin":  # pragma: no cover - bytes there
        return kib / (1024.0 * 1024.0)
    return kib / 1024.0


#: Seconds a leftover worker gets to end before it is killed.
STOP_TIMEOUT_S = 10.0


def stop_children() -> List[int]:
    """Stop and reap every child process this run started.

    The simulator joins its own shard workers, but creating shared
    memory also starts ``multiprocessing``'s resource tracker, which
    runs until this process exits and is then left behind unreaped.  It
    stops when its pipe closes, so it is stopped here and waited for.
    A ``multiprocessing`` child still running after
    :data:`STOP_TIMEOUT_S` is killed.  Returns the pids reaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    reaped = []
    for proc in multiprocessing.active_children():
        proc.join(STOP_TIMEOUT_S)
        if proc.is_alive():
            proc.kill()
            proc.join()
        reaped.append(proc.pid)
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        reaped.append(tracker._pid)
        tracker._stop()
    return reaped


def _git(root: Path, *args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ("git", *args),
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def provenance(root: Path, workload: str, seed: int, params: Dict) -> Dict:
    """Where a report came from: code, machine, libraries and inputs.

    ``commit`` is ``None`` outside a git checkout (an exported tree);
    ``dirty`` is then ``None`` too.  Only ``root`` itself is asked, so
    an exported tree nested in some other repository does not report
    that repository's commit.
    """
    commit = _git(root, "rev-parse", "HEAD") if (root / ".git").exists() else None
    status = _git(root, "status", "--porcelain") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "params": params,
    }
