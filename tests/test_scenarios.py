import tracemalloc

import numpy as np
import pytest

from paper_checks import time_reversed
from whipflow import (ArcState, GravitySpec, Grid,
                      RegularizedMap, ScenarioSpec, StepperConfig,
                      TensionProfile, branching_pair, build,
                      constitutive_tension, evolve, generalized_residual,
                      mollify, potential_energy)
from whipflow import diagnostics
from whipflow.diagnostics import (EQUILIBRIUM_ENERGY, RealizedResidual,
                                  ResidualAccumulator)
from whipflow.scenarios import (mollify_scales, stationary_upright,
                                upright_release)
from whipflow.errors import ShapeError, UnderResolvedError

ALL_KINDS_2D = ("vertical_down", "vertical_up", "straight_angle",
                "quarter_circle", "random_lipschitz")


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(kind="spiral")
    for geom_eps in (0.0, -0.1):
        with pytest.raises(ValueError, match="geom_eps"):
            ScenarioSpec(kind="helix", geom_eps=geom_eps)
    with pytest.raises(ValueError, match="seed"):
        ScenarioSpec(kind="random_lipschitz", seed=-1)


def test_vertical_down_is_equilibrium(gravity2):
    grid = Grid(123)
    state = build(ScenarioSpec(kind="vertical_down"), grid, gravity2)
    expected = np.outer(1.0 - grid.nodes, gravity2.direction)
    assert np.array_equal(state.positions, expected)


def test_vertical_up_is_mirrored(gravity2):
    grid = Grid(50)
    up = build(ScenarioSpec(kind="vertical_up"), grid, gravity2)
    down = build(ScenarioSpec(kind="vertical_down"), grid, gravity2)
    np.testing.assert_allclose(up.positions, -down.positions, atol=1e-15)


def test_straight_angle_pin_angle(gravity2):
    grid = Grid(100)
    for angle in (0.3, np.pi / 4, 2.0):
        state = build(ScenarioSpec(kind="straight_angle", alpha0=angle),
                      grid, gravity2)
        cos_alpha = -float(gravity2.direction @ state.tangents[-1])
        assert cos_alpha == pytest.approx(np.cos(angle), abs=1e-12)


def test_quarter_circle_properties(gravity2):
    grid = Grid(200)
    state = build(ScenarioSpec(kind="quarter_circle"), grid, gravity2)
    cos_alpha = -float(gravity2.direction @ state.tangents[-1])
    assert abs(cos_alpha) <= 2.0 * grid.h
    # unit-speed circle of radius 2/pi through the origin
    speeds = np.linalg.norm(state.tangents, axis=1)
    assert speeds.max() <= 1.0
    assert speeds.min() >= 1.0 - grid.h ** 2


def test_helix_needs_three_dimensions(gravity2, gravity3):
    grid = Grid(100)
    with pytest.raises(ShapeError):
        build(ScenarioSpec(kind="helix"), grid, gravity2)
    state = build(ScenarioSpec(kind="helix", geom_eps=0.1,
                               alpha0=np.pi / 3), grid, gravity3)
    assert state.dim == 3


def test_helix_needs_eight_cells_per_turn(gravity3):
    # a turn is 2 pi geom_eps long: 8 cells of h = 1/40 at the bound
    at_bound = 8.0 / (2.0 * np.pi * 40)
    grid = Grid(40)
    state = build(ScenarioSpec(kind="helix", geom_eps=1.01 * at_bound), grid,
                  gravity3)
    assert np.linalg.norm(state.tangents, axis=1).max() <= 1.0
    with pytest.raises(UnderResolvedError, match="helix turn"):
        build(ScenarioSpec(kind="helix", geom_eps=0.99 * at_bound), grid,
              gravity3)
    with pytest.raises(UnderResolvedError):
        build(ScenarioSpec(kind="helix", geom_eps=1e-3), Grid(20), gravity3)


def test_helix_unit_tangents(gravity3):
    grid = Grid(1000)
    state = build(ScenarioSpec(kind="helix", geom_eps=0.1, alpha0=np.pi / 2),
                  grid, gravity3)
    speeds = np.linalg.norm(state.tangents, axis=1)
    assert np.abs(speeds - 1.0).max() <= 1e-2 * grid.h


def test_helix_pin_angle(gravity3):
    grid = Grid(500)
    alpha0 = 1.1
    state = build(ScenarioSpec(kind="helix", geom_eps=0.05, alpha0=alpha0),
                  grid, gravity3)
    cos_alpha = -float(gravity3.direction @ state.tangents[-1])
    assert cos_alpha == pytest.approx(np.cos(alpha0), abs=0.05)


@pytest.mark.parametrize("kind", (*ALL_KINDS_2D, "helix"))
def test_built_states_admissible(kind, gravity2, gravity3):
    grid = Grid(400)
    g = gravity3 if kind == "helix" else gravity2
    state = build(ScenarioSpec(kind=kind, seed=9), grid, g)
    assert np.all(state.positions[-1] == 0.0)
    assert np.linalg.norm(state.tangents, axis=1).max() <= 1.0 + 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_random_lipschitz_deterministic(dim):
    grid = Grid(150)
    g = GravitySpec.down(dim)
    a = build(ScenarioSpec(kind="random_lipschitz", seed=31), grid, g)
    b = build(ScenarioSpec(kind="random_lipschitz", seed=31), grid, g)
    c = build(ScenarioSpec(kind="random_lipschitz", seed=32), grid, g)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)


@pytest.mark.parametrize("n", [2, 3, 99, 100, 101, 200, 4000])
def test_mollify_stays_close_and_pinned(gravity2, n):
    # every grid from two cells up: the scales widen to 2h below 100 cells
    # (at 2 and 3 cells the taper spans the whole curve)
    grid = Grid(n)
    state = build(ScenarioSpec(kind="vertical_down"), grid, gravity2)
    smooth = mollify(state)
    assert np.all(smooth.positions[-1] == 0.0)
    norms = np.linalg.norm(smooth.tangents, axis=1)
    assert norms.max() <= np.linalg.norm(state.tangents, axis=1).max() + 1e-12
    assert norms[0] == 0.0 and norms[-1] == 0.0
    gap = smooth.positions - state.positions
    width = mollify_scales(grid.h)[1]
    assert np.sqrt(grid.quad_trapezoid(np.sum(gap * gap, axis=1))) \
        <= 1.25 * width


def test_mollify_is_stable_under_repetition(gravity2):
    grid = Grid(200)
    spec = ScenarioSpec(kind="quarter_circle")
    state = build(spec, grid, gravity2)
    once = mollify(state)
    twice = mollify(once)
    gap_once = once.positions - state.positions
    gap_repeat = twice.positions - once.positions
    norm = lambda v: np.sqrt(grid.quad_trapezoid(np.sum(v * v, axis=1)))
    assert norm(gap_repeat) <= norm(gap_once) + 1e-12


def test_mollify_never_stretches(gravity2):
    grid = Grid(300)
    for kind in ALL_KINDS_2D:
        spec = ScenarioSpec(kind=kind, seed=4)
        state = build(spec, grid, gravity2)
        smooth = mollify(state)
        before = np.linalg.norm(state.tangents, axis=1).max()
        after = np.linalg.norm(smooth.tangents, axis=1).max()
        assert after <= before + 1e-12


def test_mollify_tapers_both_ends(gravity2):
    grid = Grid(200)
    spec = ScenarioSpec(kind="vertical_down")
    smooth = mollify(build(spec, grid, gravity2))
    u = smooth.tangents
    assert np.all(u[0] == 0.0)     # zero slope at the free end
    assert np.all(u[-1] == 0.0)    # identically pinned tail
    assert np.all(smooth.positions[-2] == 0.0)


def small_forward_run(g_minus, eps=1e-2, n=80, horizon=0.8):
    """A short run under reversed gravity: its (state, realized tension)
    pairs."""
    grid = Grid(n)
    rmap = RegularizedMap(eps, dim=2)
    spec = ScenarioSpec(kind="straight_angle", alpha0=np.pi / 4)
    init = mollify(build(spec, grid, g_minus))
    states, tensions = [], []
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-10, dt_max=0.02)
    evolve(init, horizon, rmap, g_minus, cfg, observer=lambda s, dt, it, flux, pot: (
        states.append(s), tensions.append(constitutive_tension(s, flux))))
    return list(zip(states, tensions))


def test_backward_transform_stationary(gravity2):
    grid = Grid(60)
    # the upright state of g is the stable state of -g, with tension +s
    positions = np.outer(grid.nodes - 1.0, gravity2.direction)
    forward = [(ArcState(grid=grid, positions=positions, time=t),
                TensionProfile(grid=grid, values=grid.nodes))
               for t in (0.0, 1.0, 2.0)]
    back = time_reversed(forward)
    assert np.array_equal(back[0][0].positions, positions)
    assert [s.time for s, _ in back] == [-2.0, -1.0, 0.0]
    for _, tension in back:
        np.testing.assert_array_equal(tension.values, -grid.nodes)


def test_backward_transform_involution_and_signs(gravity2):
    forward = small_forward_run(gravity2.flipped())
    back = time_reversed(forward)
    # realized tensions are nonnegative, so mapped ones are nonpositive
    assert max(t.values.max() for _, t in back) <= 1e-12
    again = time_reversed(back)
    assert len(again) == len(forward)
    for (a, ta), (b, tb) in zip(forward, again):
        assert np.array_equal(a.positions, b.positions)
        assert a.time == b.time
        assert np.array_equal(ta.values, tb.values)


def test_backward_transform_energy_mirror(gravity2):
    g_minus = gravity2.flipped()
    forward = small_forward_run(g_minus)
    # relative energy from the upright state under g at time t equals the
    # relative energy from the stable state of -g at time -t
    for state, _ in time_reversed(forward):
        e_back = -EQUILIBRIUM_ENERGY - potential_energy(state, gravity2)
        source = next(s for s, _ in forward if s.time == -state.time)
        e_fwd = potential_energy(source, g_minus) - EQUILIBRIUM_ENERGY
        assert abs(e_back - e_fwd) <= 1e-12


def test_branching_pair_quick(gravity2):
    grid = Grid(100)
    pair = branching_pair(upright_release(grid, gravity2), 3.0,
                          RegularizedMap(1e-2, dim=2), gravity2,
                          StepperConfig(dt_init=1e-4, dt_min=1e-10, dt_max=0.02))
    assert pair.separation >= 0.5
    # the frozen upright pair is an exact weak solution
    assert pair.stationary_residual["pde_residual_L2"] <= 1e-10
    assert pair.stationary_residual["constraint_product_L2"] <= 1e-10
    assert pair.stationary_residual["diss_inequality_slack"] >= -1e-10
    # realized tension signs over every state: falling nonnegative, frozen
    # nonpositive
    assert pair.falling_sigma_min >= -1e-12
    assert pair.stationary_sigma_max <= 0.0


def _batch_residual(pairs, g):
    """The weak-solution residuals of a sampled trajectory, written out in
    one pass over all pairs: the reference the running accumulator must
    reproduce bit for bit."""
    grid = pairs[0][0].grid
    h = grid.h
    pde_sq = constraint_sq = stretch = 0.0
    slack = np.inf
    for k, (state, tension) in enumerate(pairs):
        u = state.tangents
        stretch = max(stretch, float((np.linalg.norm(u, axis=1) - 1.0).max()))
        if k == 0:
            continue
        prev = pairs[k - 1][0]
        dt = state.time - prev.time
        velocity = (state.positions - prev.positions) / dt
        flux = tension.at_midpoints[:, None] * u
        div = np.empty((grid.n_cells, state.dim))
        div[0] = 2.0 * flux[0] / h
        div[1:] = (flux[1:] - flux[:-1]) / h
        pde_sq += dt * h * float(np.sum((velocity[:-1] - div - g.direction) ** 2))
        product = tension.at_midpoints * (np.sum(u * u, axis=1) - 1.0)
        constraint_sq += dt * h * float(np.sum(product ** 2))
        vel = velocity[:-1]
        slack = min(slack, h * float(np.sum(vel @ g.direction) - np.sum(vel ** 2)))
    return {"pde_residual_L2": float(np.sqrt(pde_sq)),
            "constraint_product_L2": float(np.sqrt(constraint_sq)),
            "stretch_violation": max(stretch, 0.0),
            "diss_inequality_slack": float(slack)}


def _upright_pairs(grid, g, horizon):
    up, tension = stationary_upright(grid, g)
    return [(ArcState(grid=grid, positions=up.positions, time=t), tension)
            for t in (0.0, 0.5 * horizon, horizon)]


@pytest.mark.parametrize("which", ["forward_run", "frozen_upright"])
def test_residual_accumulator_is_bitwise_the_batch_residual(gravity2, which):
    if which == "forward_run":
        g = gravity2.flipped()
        pairs = small_forward_run(g)
    else:
        g = gravity2
        pairs = _upright_pairs(Grid(100), g, 3.0)
    acc = ResidualAccumulator(g)
    for state, tension in pairs:
        acc.add(state, tension)
    expected = _batch_residual(pairs, g)
    assert acc.result() == expected == generalized_residual(pairs, g)
    assert acc.sigma_min == min(t.values.min() for _, t in pairs)
    assert acc.sigma_max == max(t.values.max() for _, t in pairs)


def test_residual_accumulator_needs_two_pairs_on_one_grid(gravity2):
    acc = ResidualAccumulator(gravity2)
    with pytest.raises(ShapeError, match="two snapshots"):
        acc.result()
    pairs = _upright_pairs(Grid(10), gravity2, 1.0)
    acc.add(*pairs[0])
    with pytest.raises(ShapeError, match="two snapshots"):
        acc.result()
    with pytest.raises(ShapeError, match="one grid"):
        acc.add(*_upright_pairs(Grid(11), gravity2, 1.0)[1])


def _residual_bits(acc):
    return np.array([*acc.result().values(), acc.sigma_min,
                     acc.sigma_max]).view(np.uint64)


def _forward_run_with_fluxes(g, eps=1e-2, n=80, horizon=0.8):
    """small_forward_run's states, each with the dt, Newton iterations,
    flux and potential density evolve handed out."""
    grid = Grid(n)
    rmap = RegularizedMap(eps, dim=2)
    spec = ScenarioSpec(kind="straight_angle", alpha0=np.pi / 4)
    init = mollify(build(spec, grid, g))
    seen = []
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-10, dt_max=0.02)
    evolve(init, horizon, rmap, g, cfg,
           observer=lambda *observed: seen.append(observed))
    return seen


@pytest.mark.parametrize("start", ["in_the_block", "added_alone"])
@pytest.mark.parametrize("per_block", [1, 3, "run"])
def test_block_size_does_not_change_the_realized_residual(gravity2,
                                                          monkeypatch,
                                                          per_block, start):
    # blocks of one state, of three (the last one partial) and one block
    # for the whole run; the start state either opens the first block, as
    # branching_pair adds it, or is added to the accumulator alone before
    # it
    g = gravity2.flipped()
    # 53 states: blocks of three end partial whether the start is in them
    seen = _forward_run_with_fluxes(g)[:53]
    grid = seen[0][0].grid
    n = grid.n_cells
    blocked = seen if start == "in_the_block" else seen[1:]
    size = len(blocked) if per_block == "run" else per_block
    assert len(blocked) % 3 != 0
    # floats per state: positions, flux, potential, time, dt and Newton
    # iterations
    per_state = (n + 1) * 2 + n * 2 + n + 3
    monkeypatch.setattr(diagnostics, "BLOCK_FLOATS", size * per_state)
    realized = RealizedResidual(grid, g)
    assert realized._times.shape == (size,)
    if start == "added_alone":
        state, _, _, flux, _ = seen[0]
        realized.residual.add(state, constitutive_tension(state, flux))
    for observed in blocked:
        realized.add(*observed)
    realized.flush()
    one_by_one = ResidualAccumulator(g)
    for state, _, _, flux, _ in seen:
        one_by_one.add(state, constitutive_tension(state, flux))
    assert np.array_equal(_residual_bits(realized.residual),
                          _residual_bits(one_by_one))


def test_a_residual_add_that_raises_leaves_the_accumulator_as_it_was(
        gravity2):
    g = gravity2.flipped()
    pairs = small_forward_run(g)
    acc = ResidualAccumulator(g)
    for pair in pairs[:3]:
        acc.add(*pair)
    before = _residual_bits(acc)
    # a later state with a larger tension and stretch, at a time that does
    # not increase, then a state of another grid
    (state, tension), (late, late_tension) = pairs[2], pairs[-1]
    late_positions = late.positions * 1.5
    late_positions[-1] = 0.0
    stale = ArcState(grid=late.grid, positions=late_positions,
                     time=state.time)
    raised = late_tension.values.copy()
    raised[1:] += 7.0
    big = TensionProfile(grid=late.grid, values=raised)
    with pytest.raises(ValueError, match="increasing"):
        acc.add(stale, big)
    with pytest.raises(ShapeError, match="one grid"):
        acc.add(*_upright_pairs(Grid(81), g, 1.0)[1])
    u = np.stack([stale.tangents, late.tangents])
    with pytest.raises(ValueError, match="increasing"):
        acc.add_block(late.grid, np.stack([late.positions, stale.positions]),
                      u, np.array([late.time, stale.time]),
                      np.stack([big.values, big.values]))
    assert np.array_equal(_residual_bits(acc), before)
    for pair in pairs[3:]:
        acc.add(*pair)
    assert np.array_equal(_residual_bits(acc),
                          _residual_bits(_accumulated(pairs, g)))


def _accumulated(pairs, g):
    acc = ResidualAccumulator(g)
    for pair in pairs:
        acc.add(*pair)
    return acc


def _branching_peak_bytes(horizon, gravity2):
    grid = Grid(100)
    cfg = StepperConfig(dt_init=1e-4, dt_min=1e-10, dt_max=0.02)
    tracemalloc.start()
    try:
        branching_pair(upright_release(grid, gravity2), horizon,
                       RegularizedMap(1e-2, dim=2), gravity2, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_branching_pair_memory_does_not_grow_with_the_horizon(gravity2):
    # a run four times as long takes several times the steps; a pair that
    # kept its states would need several times the memory
    short = _branching_peak_bytes(1.0, gravity2)
    long = _branching_peak_bytes(4.0, gravity2)
    assert long <= 1.25 * short, (short, long)


def test_branching_pair_forwards_each_accepted_step(gravity2):
    grid = Grid(60)
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-10, dt_max=0.02)
    init = upright_release(grid, gravity2)
    seen, stats = [], {}
    pair = branching_pair(init, 0.5, RegularizedMap(1e-2, dim=2), gravity2,
                          cfg, stats=stats,
                          stops=(0.25,),
                          observer=lambda s, dt, it, flux, pot: seen.append(s))
    # the initial state, then each accepted one
    assert len(seen) == stats["steps"] + 1 and seen[0] is init
    assert 0.25 in [s.time for s in seen] and seen[-1].time == 0.5
    diff = seen[-1].positions - stationary_upright(grid, gravity2)[0].positions
    assert pair.separation == float(
        np.sqrt(grid.quad_trapezoid(np.sum(diff * diff, axis=1))))
