"""Figures 2-3 and the §IV-C receive-rate comparison.

Figures are returned as ``(grid, {method: curve})`` pairs: the fleet's
mean validation loss over training time, step-interpolated onto a
common grid — exactly what the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.configs import ExperimentScale, get_scale
from repro.experiments.render import render_curves
from repro.experiments.runner import (
    RunSpec,
    build_context,
    register_context,
    step_worker_overrides,
)
from repro.parallel import run_specs

__all__ = ["FigureResult", "fig2", "fig3", "receive_rates"]

FIG2_METHODS = ("ProxSkip", "RSU-L", "DFL-DDS", "DP", "LbChat")


@dataclass
class FigureResult:
    """A reproduced loss-vs-time figure."""

    title: str
    grid: np.ndarray
    curves: dict[str, np.ndarray]

    def render(self) -> str:
        """The figure as aligned text columns."""
        return render_curves(self.title, self.grid, self.curves)

    def final(self, method: str) -> float:
        """A method's final loss value."""
        return float(self.curves[method][-1])

    def convergence_time(self, method: str, threshold: float) -> float:
        """First grid time at which the curve drops below ``threshold``.

        Returns the last grid time if the threshold is never reached.
        """
        curve = self.curves[method]
        below = np.where(curve <= threshold)[0]
        return float(self.grid[below[0]]) if len(below) else float(self.grid[-1])


def _method_curves(
    methods: tuple[str, ...],
    scale: ExperimentScale,
    wireless: bool,
    seed: int,
    n_points: int,
    jobs: int,
    step_workers: int = 1,
) -> dict[str, np.ndarray]:
    """One loss curve per method, trained serially or across workers."""
    context = build_context(scale)
    register_context(context)
    specs = [
        RunSpec.for_context(
            context, method, wireless=wireless, seed=seed,
            overrides=step_worker_overrides(step_workers),
        )
        for method in methods
    ]
    results = run_specs(specs, jobs=jobs)
    return {
        method: result.loss_curve(n_points)[1]
        for method, result in zip(methods, results)
    }


def fig2(
    scale: ExperimentScale | str = "ci",
    wireless: bool = False,
    seed: int = 1,
    n_points: int = 21,
    jobs: int = 1,
    step_workers: int = 1,
) -> FigureResult:
    """Fig. 2(a) (wireless=False) / Fig. 2(b) (wireless=True)."""
    scale = get_scale(scale) if isinstance(scale, str) else scale
    grid = np.linspace(0.0, scale.train_duration, n_points)
    curves = _method_curves(
        FIG2_METHODS, scale, wireless, seed, n_points, jobs, step_workers
    )
    label = "w" if wireless else "w/o"
    return FigureResult(
        title=f"Fig. 2: training loss vs. time ({label} wireless loss)",
        grid=grid,
        curves=curves,
    )


def fig3(
    scale: ExperimentScale | str = "ci",
    wireless: bool = True,
    seed: int = 1,
    n_points: int = 21,
    jobs: int = 1,
    step_workers: int = 1,
) -> FigureResult:
    """Fig. 3: LbChat vs SCO convergence speed."""
    scale = get_scale(scale) if isinstance(scale, str) else scale
    grid = np.linspace(0.0, scale.train_duration, n_points)
    curves = _method_curves(
        ("LbChat", "SCO"), scale, wireless, seed, n_points, jobs, step_workers
    )
    return FigureResult(
        title="Fig. 3: training loss vs. time (LbChat & SCO)", grid=grid, curves=curves
    )


def receive_rates(
    scale: ExperimentScale | str = "ci", seed: int = 1, jobs: int = 1,
    step_workers: int = 1,
) -> dict[str, float]:
    """§IV-C: successful model receiving rate per method, under loss."""
    scale = get_scale(scale) if isinstance(scale, str) else scale
    context = build_context(scale)
    register_context(context)
    specs = [
        RunSpec.for_context(
            context, method, wireless=True, seed=seed,
            overrides=step_worker_overrides(step_workers),
        )
        for method in FIG2_METHODS
    ]
    results = run_specs(specs, jobs=jobs)
    return {
        method: result.receive_rate for method, result in zip(FIG2_METHODS, results)
    }
