"""CLI: regenerate the paper's tables and figures as text.

Usage::

    python -m repro.analysis table1
    python -m repro.analysis fig2 fig6
    python -m repro.analysis trajectory     # perf/trajectory.jsonl
    python -m repro.analysis all
"""

from __future__ import annotations

import sys

from repro.analysis.figures import (fig3_data, fig4_data, fig5_data,
                                    render_fig2, render_fig6, render_fig7,
                                    render_fig8, render_proposals,
                                    render_rate_figure)
from repro.analysis.survey import render_survey
from repro.analysis.table1 import render_table1

ARTIFACTS = {
    "table1": lambda: render_table1(),
    "fig2": lambda: render_fig2(),
    "fig3": lambda: render_rate_figure(
        fig3_data(), "Figure 3: message rates with OFI/PSM2 (IT)"),
    "fig4": lambda: render_rate_figure(
        fig4_data(), "Figure 4: message rates with UCX/EDR (Gomez)"),
    "fig5": lambda: render_rate_figure(
        fig5_data(), "Figure 5: message rates, infinitely fast network"),
    "fig6": lambda: render_fig6(),
    "fig7": lambda: render_fig7(),
    "fig8": lambda: render_fig8(),
    "proposals": lambda: render_proposals(),
    "survey": lambda: render_survey(),
    "profile": lambda: _stencil_profile(),
    "sensitivity": lambda: _sensitivity(),
    "amdahl": lambda: _amdahl(),
    "trajectory": lambda: _trajectory(),
}


def _trajectory() -> str:
    from repro.analysis.trajectory import render_trajectory
    return render_trajectory()


def _amdahl() -> str:
    from repro.analysis.amdahl import render_fixed_cost
    return render_fixed_cost()


def _sensitivity() -> str:
    from repro.analysis.sensitivity import render_sensitivity
    return render_sensitivity()


def _stencil_profile() -> str:
    """Instruction profile of a short stencil run (default build)."""
    from repro.analysis.appreport import profile_world, render_profile
    from repro.apps.stencil import StencilGrid
    from repro.core.config import BuildConfig
    from repro.runtime.world import World

    def main(comm):
        grid = StencilGrid(comm, (2, 2), (12, 12))
        grid.set_dirichlet(top=1.0)
        for _ in range(25):
            grid.jacobi_step()

    world = World(4, BuildConfig.default())
    world.run(main)
    return render_profile(
        profile_world(world),
        title="Instruction profile: 2x2 five-point stencil, 25 sweeps "
              "(ch4 default build)")


def main(argv: list[str]) -> int:
    """Print the requested artifacts; returns a process exit code."""
    targets = argv or ["all"]
    if targets == ["all"]:
        targets = list(ARTIFACTS)
    unknown = [t for t in targets if t not in ARTIFACTS]
    if unknown:
        print(f"unknown artifacts: {unknown}; "
              f"choose from {sorted(ARTIFACTS)} or 'all'",
              file=sys.stderr)
        return 2
    for i, target in enumerate(targets):
        if i:
            print()
        print(ARTIFACTS[target]())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
