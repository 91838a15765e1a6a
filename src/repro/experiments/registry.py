"""Declarative experiment registry.

Each module in :mod:`repro.experiments` describes itself with an
:class:`ExperimentSpec` and calls :func:`register` at import time.  The
runner (:mod:`repro.experiments.runall`), the CLI (``--list``/
``--only``) and the tests all consume the registry — adding an
experiment means writing one module with a ``run()`` and a spec, never
editing a dispatch table.

Repetition profiles
-------------------
Experiments differ in how many Monte-Carlo repetitions they need (mean
placement metrics vs 99th-percentile tails) and in which knob of
``run_all`` drives them.  A spec names its ``profile``:

==============  ====================================================
``placement``   Figs. 5-10; driven by ``placement_repetitions``
``scheduling``  Figs. 11-16; driven by ``scheduling_repetitions``
``tail``        percentile experiments; ``tail_repetitions``
``joint``       full-pipeline runs; scaled from placement reps
``analytic``    no repetition knob (closed forms / fixed sims)
``headline``    aggregates other experiments; takes both rep knobs
==============  ====================================================
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import UnknownExperimentError, ValidationError
from repro.experiments.harness import ExperimentResult

#: Valid ``ExperimentSpec.profile`` values.
PROFILES = ("placement", "scheduling", "tail", "joint", "analytic", "headline")

#: Package-infrastructure modules that do not register experiments.
INFRASTRUCTURE_MODULES = frozenset(
    {"harness", "sweeps", "registry", "montecarlo", "runall"}
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment's declarative description.

    Parameters
    ----------
    name:
        Unique key (``fig05`` ... ``headline``) used by ``--only``.
    title:
        Human-readable one-liner for ``--list``.
    runner:
        The module's ``run`` callable returning an
        :class:`ExperimentResult`.  Must accept ``seed`` and ``jobs``
        keywords; ``repetitions`` too unless the profile is
        ``analytic``/``headline``.
    profile:
        Which repetition knob drives it (see module docstring).
    tags:
        Free-form labels (``placement``, ``scheduling``, ``tail``,
        ``beyond-paper``, ...) shown by ``--list``.
    default_repetitions:
        The repetitions used when the caller passes none — recorded in
        run metadata.
    order:
        Sort key for report order (figure number; beyond-paper
        experiments sort after the figures).
    """

    name: str
    title: str
    runner: Callable[..., ExperimentResult]
    profile: str = "placement"
    tags: Tuple[str, ...] = ()
    default_repetitions: Optional[int] = None
    order: int = 1000

    def __post_init__(self) -> None:
        if self.profile not in PROFILES:
            raise ValidationError(
                f"unknown profile {self.profile!r} for experiment "
                f"{self.name!r}; valid: {PROFILES}"
            )

    def default_seed(self) -> Optional[int]:
        """The runner's own default seed, if it declares one."""
        try:
            parameter = inspect.signature(self.runner).parameters["seed"]
        except (KeyError, TypeError, ValueError):
            return None
        if parameter.default is inspect.Parameter.empty:
            return None
        return parameter.default

    def run(
        self,
        repetitions: Optional[int] = None,
        seed: Optional[int] = None,
        jobs: int = 1,
        **extra: object,
    ) -> ExperimentResult:
        """Execute the runner and stamp run metadata on the result.

        ``repetitions``/``seed`` are forwarded only when given, so the
        module defaults stay authoritative.  The returned result's
        ``meta`` records the experiment name, effective repetitions,
        seed, worker count and wall-clock time (see
        :meth:`ExperimentResult.render` for what is surfaced where).
        """
        kwargs: Dict[str, object] = dict(extra)
        if repetitions is not None:
            kwargs["repetitions"] = repetitions
        if seed is not None:
            kwargs["seed"] = seed
        kwargs["jobs"] = jobs
        start = time.perf_counter()
        result = self.runner(**kwargs)
        wall_time = time.perf_counter() - start
        result.meta.update(
            {
                "experiment": self.name,
                "repetitions": (
                    repetitions
                    if repetitions is not None
                    else self.default_repetitions
                ),
                "seed": seed if seed is not None else self.default_seed(),
                "jobs": jobs,
                "wall_time_s": round(wall_time, 4),
            }
        )
        return result


_REGISTRY: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Register a spec (idempotent for the same object); returns it."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing is not spec:
        raise ValidationError(
            f"experiment {spec.name!r} registered twice "
            f"({existing.runner} and {spec.runner})"
        )
    _REGISTRY[spec.name] = spec
    return spec


def experiment_module_names() -> List[str]:
    """All experiment (non-infrastructure) modules in this package."""
    import repro.experiments as package

    return sorted(
        info.name
        for info in pkgutil.iter_modules(package.__path__)
        if info.name not in INFRASTRUCTURE_MODULES
        and not info.name.startswith("_")
    )


def load_all() -> List[ExperimentSpec]:
    """Import every experiment module and return all specs in order."""
    for module_name in experiment_module_names():
        importlib.import_module(f"repro.experiments.{module_name}")
    return all_specs()


def all_specs() -> List[ExperimentSpec]:
    """Registered specs sorted by report order."""
    return sorted(_REGISTRY.values(), key=lambda s: (s.order, s.name))


def names() -> List[str]:
    """Registered experiment names in report order."""
    return [spec.name for spec in all_specs()]


def get(name: str) -> ExperimentSpec:
    """Look up one spec; unknown names raise with the valid list."""
    if not _REGISTRY:
        load_all()
    spec = _REGISTRY.get(name)
    if spec is None:
        raise UnknownExperimentError(
            f"unknown experiment {name!r}; valid names: "
            f"{', '.join(names())}"
        )
    return spec
