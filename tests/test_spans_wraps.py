"""perfbench's tracer still sees whipflow's hot path.

``perfbench/spans.py`` wraps the callables of ``WRAPS`` by ``getattr`` on
each module or class path; a removed name fails only there, inside the
slow traced subprocess run.  This loads the file by path and resolves
each entry directly, naming the ones that are gone.  It also installs
the tracer's wrappers and runs a short ``evolve``: a step that reached
LAPACK's band solve or the radial inversion other than through
``flow.solve_banded`` and ``RegularizedMap.local_calculus`` would leave
the traced per-layer figures silently short."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(spans):
    missing = [f"{path}.{attr}" for path, attr, _ in spans.WRAPS
               if not callable(getattr(spans._resolve(path), attr, None))]
    assert not missing, f"perfbench's spans.WRAPS names {missing}"


def test_the_tracer_sees_every_solve_and_every_evaluation(spans):
    # with no rejection and no line-search halving, each Newton iteration
    # makes one band solve and evaluates one trial, and the run evaluates
    # its initial state once more
    from whipflow import (GravitySpec, Grid, RegularizedMap, ScenarioSpec,
                          StepperConfig, build, evolve, mollify)
    from whipflow.scenarios import mollify_scales

    grid = Grid(80)
    g = GravitySpec.down(2)
    radius, width = mollify_scales(grid.h)
    spec = ScenarioSpec(kind="quarter_circle", mollify_radius=radius,
                        taper_width=width)
    init = mollify(build(spec, grid, g), spec)
    tracer = spans.Tracer()
    stats = {}
    with spans.Patches() as patches:
        spans.install(tracer, patches)
        evolve(init, 0.3, RegularizedMap(1e-2, dim=2), g,
               StepperConfig(dt_init=1e-3, dt_min=1e-9, dt_max=0.02),
               stats=stats)
    calls = {name: entry["calls"]
             for name, entry in spans.aggregate(tracer.spans).items()}
    iterations = stats["newton_iterations"]
    assert stats["rejections"] == 0 and iterations > 0
    assert calls.get("flow.solve_banded", 0) == iterations
    assert calls.get("regmap.local_calculus", 0) == iterations + 1
