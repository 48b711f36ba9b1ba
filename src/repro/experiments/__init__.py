"""Experiment runners — one per paper table/figure, plus validations.

The registry maps experiment ids (the ones DESIGN.md and EXPERIMENTS.md
use) to runner callables returning
:class:`~repro.experiments.base.ExperimentResult`.

The closed-form runners (``figure5``, ``table1``, ``table2``, and
``heterogeneous``, whose Monte Carlo draws every ``C`` from one RNG) are
plain functions.  Every :data:`SIMULATED` runner is a grid of pure cells
run by :func:`~repro.experiments.base.run_grid` (see that module), so
each takes ``seed`` and ``jobs`` and any ``jobs`` prints the same table.

>>> from repro.experiments import run_experiment
>>> result = run_experiment("table1")
>>> print(result.render())  # doctest: +SKIP
"""

from typing import Callable, Dict

from . import (
    ablations,
    baselines,
    byzantine,
    cache_extensions,
    caching,
    figure5,
    heterogeneous,
    latency,
    mobility,
    overhead,
    revocation,
    sharded,
    table1,
    table2,
    validation,
    weighted,
)
from .base import ExperimentResult, ascii_plot, format_table

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "SEEDED",
    "SIMULATED",
    "ascii_plot",
    "format_table",
    "run_experiment",
]

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "figure5": figure5.run,
    "table1": table1.run,
    "table2": table2.run,
    "sharded": sharded.run,
    "sim_table1": validation.run,
    "overhead": overhead.run,
    "latency": latency.run,
    "revocation": revocation.run,
    "freeze_vs_quorum": ablations.run,
    "baselines": baselines.run,
    "heterogeneous": heterogeneous.run,
    "weighted_quorums": weighted.run,
    "mobility": mobility.run,
    "cache_extensions": cache_extensions.run,
    "byzantine": byzantine.run,
    "caching": caching.run,
}


#: The ids whose runners take ``seed`` and ``jobs``.
SIMULATED = frozenset(EXPERIMENTS) - {"figure5", "table1", "table2", "heterogeneous"}
#: The ids whose runners take ``seed``.
SEEDED = SIMULATED | {"heterogeneous"}


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run one experiment by id (see :data:`EXPERIMENTS` for ids)."""
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None
    return runner(**kwargs)
