"""Experiment framework: uniform results that print like the paper.

Every experiment runner returns an :class:`ExperimentResult` whose rows
reproduce one table or figure of the paper (or a validation/ablation
the paper's claims imply).  Results render as aligned text tables —
the same rows EXPERIMENTS.md records — and as machine-readable dicts
for tests.

The simulated runners share one harness: :func:`run_grid` runs a cell
function over a runner's task tuples and formats each result with a row
function.  A cell builds :meth:`AccessControlSystem.experiment_cell`
with :func:`cell_policy` or :func:`analysis_policy`, and drives it with
a :mod:`repro.workloads.generators` workload or :func:`run_trials`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.policy import AccessPolicy, QueryStrategy
from ..core.rights import Right
from ..runtime import run_parallel
from ..sim.engine import Environment

__all__ = [
    "ExperimentResult", "TRIAL_WINDOW", "access_trial", "analysis_policy",
    "ascii_plot", "cell_policy", "format_table", "run_grid", "run_trials",
]

#: One trial's budget (simulated seconds).  With 50 ms fixed latency and
#: a 1 s query timeout, every decision lands well inside it.
TRIAL_WINDOW = 3.0


def cell_policy(**knobs: Any) -> AccessPolicy:
    """The policy every simulated cell starts from, with ``knobs`` on
    top: ``b = 1`` (an experiment cell's clocks are perfect) and no
    background cache sweep, so an entry expires only when looked up."""
    return AccessPolicy(**{"clock_bound": 1.0, "cache_cleanup_interval": None, **knobs})


def analysis_policy(c: int, **knobs: Any) -> AccessPolicy:
    """Section 4.1's analysis setting at check quorum ``c``: one attempt
    (``R = 1``) denied when it fails, all managers asked at once, and
    rights that never expire within a run."""
    return cell_policy(**{
        "check_quorum": c, "expiry_bound": 1_000_000.0, "max_attempts": 1,
        "query_strategy": QueryStrategy.PARALLEL, "retry_backoff": 0.0,
        "update_retry_interval": 0.5, **knobs,
    })


def run_trials(
    env: Environment,
    trials: int,
    start: Callable[[int], Callable[[], bool]],
    resample: Optional[Callable[[], None]] = None,
) -> List[bool]:
    """The one trial loop: trial ``i`` calls ``resample()`` (if given),
    then ``start(i)``, runs ``env`` for :data:`TRIAL_WINDOW` seconds, and
    records what the check ``start`` returned says at the window's end."""
    outcomes = []
    for i in range(trials):
        if resample is not None:
            resample()
        check = start(i)
        env.run(until=env.now + TRIAL_WINDOW)
        outcomes.append(bool(check()))
    return outcomes


def access_trial(
    host: Any, application: str, user_of: Callable[[int], str]
) -> Callable[[int], Callable[[], bool]]:
    """A :func:`run_trials` start: trial ``i`` is ``user_of(i)`` asking
    ``host`` for ``application``, and succeeds if allowed."""

    def start(i: int) -> Callable[[], bool]:
        proc = host.request_access(application, user_of(i), Right.USE)
        return lambda: proc.value.allowed

    return start


def run_grid(
    cell: Callable[..., Any],
    tasks: Sequence[Sequence[Any]],
    jobs: Optional[int],
    row: Optional[Callable[..., Any]] = None,
) -> List[Any]:
    """The one grid executor: ``row(*task, result)`` for each task, where
    ``result = cell(*task)`` fans out over ``jobs`` worker processes (a
    cell that returns its own row needs no ``row``).  Cells are pure
    functions of their task, so any ``jobs`` gives the same rows."""
    results = run_parallel(cell, [tuple(task) for task in tasks], jobs)
    if row is None:
        return results
    return [row(*task, result) for task, result in zip(tasks, results)]


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.5f}"
    return str(value)


def format_table(columns: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render an aligned monospace table.

    Every row must have exactly one cell per column; a mismatched row
    raises ``ValueError`` naming the offending row (a short row used to
    surface as a bare ``IndexError`` from the width computation).
    """
    for index, row in enumerate(rows):
        if len(row) != len(columns):
            raise ValueError(
                f"row {index} has {len(row)} cells, expected {len(columns)} "
                f"(columns: {list(columns)!r})"
            )
    rendered = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [
        max(len(col), *(len(row[i]) for row in rendered)) if rendered else len(col)
        for i, col in enumerate(columns)
    ]
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))

    header = line(list(columns))
    separator = "  ".join("-" * width for width in widths)
    body = "\n".join(line(row) for row in rendered)
    return "\n".join([header, separator, body]) if rows else "\n".join([header, separator])


def ascii_plot(
    series: Dict[str, List[float]],
    x_values: List[Any],
    height: int = 12,
    markers: str = "*o+x#@",
) -> str:
    """A small terminal plot for the Figure 5 curves.

    Values are assumed to be probabilities in [0, 1]; one column per x
    value, one marker per series.
    """
    if not series:
        return "(no data)"
    width = len(x_values)
    grid = [[" "] * width for _ in range(height)]
    for index, (name, values) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        for x, value in enumerate(values[:width]):
            row = height - 1 - int(round(value * (height - 1)))
            row = min(height - 1, max(0, row))
            if grid[row][x] in (" ", marker):
                grid[row][x] = marker
            else:
                grid[row][x] = "#"  # overlap
    lines = []
    for row_index, row in enumerate(grid):
        label = (
            "1.0 |" if row_index == 0
            else "0.0 |" if row_index == height - 1
            else "    |"
        )
        lines.append(label + " ".join(row))
    lines.append("    +" + "-" * (2 * width - 1))
    lines.append("     " + " ".join(str(x)[0] for x in x_values))
    legend = "  ".join(
        f"{markers[i % len(markers)]}={name}" for i, name in enumerate(series)
    )
    lines.append("     " + legend + "  (#=overlap)")
    return "\n".join(lines)


@dataclass
class ExperimentResult:
    """One reproduced table/figure."""

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[List[Any]]
    notes: str = ""
    extra_text: str = ""  # e.g. an ascii plot
    params: Dict[str, Any] = field(default_factory=dict)

    def as_dicts(self) -> List[Dict[str, Any]]:
        """Rows as dicts keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def render(self) -> str:
        parts = [f"== {self.experiment_id}: {self.title} =="]
        if self.params:
            rendered = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            parts.append(f"params: {rendered}")
        parts.append(format_table(self.columns, self.rows))
        if self.extra_text:
            parts.append(self.extra_text)
        if self.notes:
            parts.append(self.notes)
        return "\n\n".join(parts)

    def __str__(self) -> str:
        return self.render()
