"""Tables II-VII: driving success rates under the paper's conditions.

Each function trains the required methods on the shared context,
deploys the resulting models in closed-loop online evaluation, and
returns ``{condition: {method: success%}}`` plus a rendered text table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.configs import ExperimentScale, get_scale
from repro.experiments.render import render_table
from repro.experiments.runner import (
    ExperimentContext,
    RunSpec,
    build_context,
    online_evaluate,
    register_context,
    step_worker_overrides,
)
from repro.parallel import run_specs
from repro.sim.evaluate import DrivingCondition

__all__ = [
    "TableResult",
    "success_table",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
]

CONDITIONS = [cond.value for cond in DrivingCondition]
MAIN_METHODS = ("ProxSkip", "RSU-L", "DFL-DDS", "DP", "LbChat")


@dataclass
class TableResult:
    """A reproduced table: values indexed [condition][column]."""

    title: str
    columns: list[str]
    values: dict[str, dict[str, float]]
    receive_rates: dict[str, float]

    def render(self) -> str:
        """The table as aligned text, paper-shaped."""
        return render_table(self.title, CONDITIONS, self.columns, self.values)

    def cell(self, condition: str, column: str) -> float:
        """One table value by condition and column."""
        return self.values[condition][column]


def _assemble(
    title: str,
    columns: list[str],
    specs: list[RunSpec],
    context: ExperimentContext,
    seed: int,
    jobs: int,
) -> TableResult:
    """Train one spec per column (fanned out to ``jobs`` workers) and
    online-evaluate each into one table."""
    register_context(context)
    results = run_specs(specs, jobs=jobs)
    values: dict[str, dict[str, float]] = {cond: {} for cond in CONDITIONS}
    receive_rates: dict[str, float] = {}
    for column, result in zip(columns, results):
        rates = online_evaluate(result, context, seed=seed)
        receive_rates[column] = result.receive_rate
        for cond in CONDITIONS:
            values[cond][column] = rates[cond]
    return TableResult(
        title=title, columns=columns, values=values, receive_rates=receive_rates
    )


def success_table(
    title: str,
    methods: tuple[str, ...],
    context: ExperimentContext,
    wireless: bool,
    seed: int = 1,
    coreset_sizes: dict[str, int] | None = None,
    jobs: int = 1,
    step_workers: int = 1,
) -> TableResult:
    """Train ``methods`` and online-evaluate each into one table.

    ``coreset_sizes`` optionally overrides the coreset size per column
    label (Table IV); ``jobs`` fans the training runs out to worker
    processes, and ``step_workers`` shards each run's fleet stepping
    (results are bit-identical for every value of either).
    """
    specs = []
    for column in methods:
        method = column
        coreset_size = None
        if coreset_sizes and column in coreset_sizes:
            method = "LbChat"
            coreset_size = coreset_sizes[column]
        specs.append(
            RunSpec.for_context(
                context, method, wireless=wireless, seed=seed,
                coreset_size=coreset_size,
                overrides=step_worker_overrides(step_workers),
            )
        )
    return _assemble(title, list(methods), specs, context, seed, jobs)


def table2(
    scale: ExperimentScale | str = "ci", seed: int = 1, jobs: int = 1,
    step_workers: int = 1,
) -> TableResult:
    """Table II: success rate without wireless loss, all five methods."""
    scale = get_scale(scale) if isinstance(scale, str) else scale
    context = build_context(scale)
    return success_table(
        "Table II: driving success rate (w/o wireless loss) (%)",
        MAIN_METHODS,
        context,
        wireless=False,
        seed=seed,
        jobs=jobs,
        step_workers=step_workers,
    )


def table3(
    scale: ExperimentScale | str = "ci", seed: int = 1, jobs: int = 1,
    step_workers: int = 1,
) -> TableResult:
    """Table III: success rate with wireless loss, all five methods."""
    scale = get_scale(scale) if isinstance(scale, str) else scale
    context = build_context(scale)
    return success_table(
        "Table III: driving success rate (w wireless loss) (%)",
        MAIN_METHODS,
        context,
        wireless=True,
        seed=seed,
        jobs=jobs,
        step_workers=step_workers,
    )


def table4(
    scale: ExperimentScale | str = "ci",
    seed: int = 1,
    sizes: tuple[int, int] | None = None,
    jobs: int = 1,
    step_workers: int = 1,
) -> TableResult:
    """Table IV: LbChat with 10x and 1/10x the default coreset size.

    Columns follow the paper: large/small coreset, each with and
    without wireless loss.
    """
    scale = get_scale(scale) if isinstance(scale, str) else scale
    context = build_context(scale)
    large, small = sizes or (scale.coreset_size * 10, max(scale.coreset_size // 10, 2))
    columns = [f"{large} (W/O)", f"{small} (W/O)", f"{large} (W)", f"{small} (W)"]
    specs = [
        RunSpec.for_context(
            context, "LbChat", wireless=wireless, seed=seed, coreset_size=size,
            overrides=step_worker_overrides(step_workers),
        )
        for size, wireless in ((large, False), (small, False), (large, True), (small, True))
    ]
    return _assemble(
        "Table IV: success rate with different coreset sizes (%)",
        columns,
        specs,
        context,
        seed,
        jobs,
    )


def _ablation_table(
    title: str, method: str, scale: ExperimentScale | str, seed: int,
    jobs: int = 1, step_workers: int = 1,
) -> TableResult:
    scale = get_scale(scale) if isinstance(scale, str) else scale
    context = build_context(scale)
    columns = ["W/O wireless loss", "W wireless loss"]
    specs = [
        RunSpec.for_context(
            context, method, wireless=wireless, seed=seed,
            overrides=step_worker_overrides(step_workers),
        )
        for wireless in (False, True)
    ]
    return _assemble(title, columns, specs, context, seed, jobs)


def table5(
    scale: ExperimentScale | str = "ci", seed: int = 1, jobs: int = 1,
    step_workers: int = 1,
) -> TableResult:
    """Table V: LbChat with equal compression ratios (Eq. 7 masked)."""
    return _ablation_table(
        "Table V: success rate with equal comp. ratio (%)",
        "LbChat (equal comp.)",
        scale,
        seed,
        jobs,
        step_workers,
    )


def table6(
    scale: ExperimentScale | str = "ci", seed: int = 1, jobs: int = 1,
    step_workers: int = 1,
) -> TableResult:
    """Table VI: LbChat with plain averaging (Eq. 8 masked)."""
    return _ablation_table(
        "Table VI: success rate with avg. aggregation (%)",
        "LbChat (avg. agg.)",
        scale,
        seed,
        jobs,
        step_workers,
    )


def table7(
    scale: ExperimentScale | str = "ci", seed: int = 1, jobs: int = 1,
    step_workers: int = 1,
) -> TableResult:
    """Table VII: sharing coresets only (SCO)."""
    return _ablation_table(
        "Table VII: success rate with sharing coreset only (%)",
        "SCO",
        scale,
        seed,
        jobs,
        step_workers,
    )
