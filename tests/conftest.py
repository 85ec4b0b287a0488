"""Shared fixtures; the long pendulum-release run is computed once."""

import numpy as np
import pytest

from whipflow import (GravitySpec, Grid, RegularizedMap,
                      ScenarioSpec, StepperConfig, build, discrete_energy,
                      evolve, mollify, report)


def _only_run_dir(root):
    dirs = [p for p in root.iterdir() if p.is_dir()]
    assert len(dirs) == 1, f"expected one run directory, found {dirs}"
    return dirs[0]


@pytest.fixture(scope="session")
def only_run_dir():
    """A function returning the single directory under an output root."""
    return _only_run_dir


@pytest.fixture(scope="session")
def gravity2():
    return GravitySpec.down(2)


@pytest.fixture(scope="session")
def gravity3():
    return GravitySpec.down(3)


class PendulumRun:
    """Quarter-circle release at eps = 1e-2, n = 200, integrated to T = 8,
    with everything the acceptance gate wants to inspect."""

    def __init__(self):
        self.eps = 1e-2
        self.grid = Grid(200)
        self.gravity = GravitySpec.down(2)
        self.rmap = RegularizedMap(self.eps, dim=2)
        spec = ScenarioSpec(kind="quarter_circle", mollify_radius=0.02,
                            taper_width=0.04)
        self.init = mollify(build(spec, self.grid, self.gravity), spec)
        cfg = StepperConfig(dt_init=1e-3, dt_min=1e-10, dt_max=0.02)

        self.reports = [report(self.init, self.rmap, self.gravity)]
        self.energies = [discrete_energy(self.init, self.rmap, self.gravity)]
        self.dts = [0.0]
        self.sup_tangent = [
            float(np.linalg.norm(self.init.tangents, axis=1).max())
        ]
        self.velocity_budget = 0.0
        self.states = [self.init]

        def observer(state, dt, iters):
            self.reports.append(report(state, self.rmap, self.gravity))
            self.energies.append(discrete_energy(state, self.rmap, self.gravity))
            self.dts.append(dt)
            self.sup_tangent.append(
                float(np.linalg.norm(state.tangents, axis=1).max())
            )
            velocity = (state.positions - self.states[-1].positions) / dt
            self.velocity_budget += dt * self.grid.h * float(
                np.sum(velocity[:-1] ** 2)
            )
            self.states.append(state)

        self.final = evolve(self.init, 8.0, self.rmap, self.gravity, cfg,
                            observer=observer)


@pytest.fixture(scope="session")
def pendulum_run():
    return PendulumRun()
