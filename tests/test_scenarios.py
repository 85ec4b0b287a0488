import numpy as np
import pytest

from whipflow import (ArcState, GravitySpec, Grid, RegularizedMap,
                      ScenarioSpec, StepperConfig, Trajectory,
                      backward_transform, branching_pair, build,
                      constitutive_tension, evolve, mollify, potential_energy)
from whipflow.diagnostics import EQUILIBRIUM_ENERGY
from whipflow.errors import ContractError, ShapeError, UnderResolvedError

ALL_KINDS_2D = ("vertical_down", "vertical_up", "straight_angle",
                "quarter_circle", "random_lipschitz")


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(kind="spiral")
    with pytest.raises(ValueError):
        ScenarioSpec(kind="helix", mollify_radius=-1.0)
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


def test_mollify_stays_close_and_pinned(gravity2):
    grid = Grid(200)
    spec = ScenarioSpec(kind="vertical_down", mollify_radius=0.02,
                        taper_width=0.04)
    state = build(spec, grid, gravity2)
    smooth = mollify(state, spec)
    assert np.all(smooth.positions[-1] == 0.0)
    gap = smooth.positions - state.positions
    assert np.sqrt(grid.quad_trapezoid(np.sum(gap * gap, axis=1))) <= 0.05


def test_mollify_is_stable_under_repetition(gravity2):
    grid = Grid(200)
    spec = ScenarioSpec(kind="quarter_circle", mollify_radius=0.02,
                        taper_width=0.04)
    state = build(spec, grid, gravity2)
    once = mollify(state, spec)
    twice = mollify(once, spec)
    gap_once = once.positions - state.positions
    gap_repeat = twice.positions - once.positions
    norm = lambda v: np.sqrt(grid.quad_trapezoid(np.sum(v * v, axis=1)))
    assert norm(gap_repeat) <= norm(gap_once) + 1e-12


def test_mollify_never_stretches(gravity2):
    grid = Grid(300)
    for kind in ALL_KINDS_2D:
        spec = ScenarioSpec(kind=kind, seed=4, mollify_radius=0.02,
                            taper_width=0.04)
        state = build(spec, grid, gravity2)
        smooth = mollify(state, spec)
        before = np.linalg.norm(state.tangents, axis=1).max()
        after = np.linalg.norm(smooth.tangents, axis=1).max()
        assert after <= before + 1e-12


def test_mollify_tapers_both_ends(gravity2):
    grid = Grid(200)
    spec = ScenarioSpec(kind="vertical_down", mollify_radius=0.02,
                        taper_width=0.08)
    smooth = mollify(build(spec, grid, gravity2), spec)
    u = smooth.tangents
    assert np.all(u[0] == 0.0)     # zero slope at the free end
    assert np.all(u[-1] == 0.0)    # identically pinned tail
    assert np.all(smooth.positions[-2] == 0.0)


def test_mollify_under_resolved(gravity2):
    grid = Grid(20)  # h = 0.05 > radius/2
    spec = ScenarioSpec(kind="vertical_down", mollify_radius=0.02,
                        taper_width=0.04)
    state = build(spec, grid, gravity2)
    with pytest.raises(UnderResolvedError):
        mollify(state, spec)
    with pytest.raises(ValueError):
        mollify(state, ScenarioSpec(kind="vertical_down", taper_width=0.4))


def small_forward_run(g_minus, eps=1e-2, n=80, horizon=0.8):
    """A short run under reversed gravity, with its realized tensions."""
    grid = Grid(n)
    rmap = RegularizedMap(eps, dim=2)
    spec = ScenarioSpec(kind="straight_angle", alpha0=np.pi / 4,
                        mollify_radius=0.03, taper_width=0.05)
    init = mollify(build(spec, grid, g_minus), spec)
    states = [init]
    tensions = [constitutive_tension(init, rmap.invert(init.tangents))]
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-10, dt_max=0.02)
    evolve(init, horizon, rmap, g_minus, cfg, observer=lambda s, dt, it, flux, pot: (
        states.append(s), tensions.append(constitutive_tension(s, flux))))
    return Trajectory(states=tuple(states), gravity=g_minus,
                      tensions=tuple(tensions))


def test_backward_transform_stationary(gravity2):
    grid = Grid(60)
    g_minus = gravity2.flipped()
    # the upright state of g is the stable state of -g, with tension +s
    positions = np.outer(grid.nodes - 1.0, gravity2.direction)
    states = tuple(ArcState(grid=grid, positions=positions, time=t)
                   for t in (0.0, 1.0, 2.0))
    from whipflow import TensionProfile
    tensions = tuple(TensionProfile(grid=grid, values=grid.nodes)
                     for _ in range(3))
    forward = Trajectory(states=states, gravity=g_minus, tensions=tensions)
    back = backward_transform(forward, gravity2)
    assert np.array_equal(back.states[0].positions, positions)
    assert back.times.tolist() == [-2.0, -1.0, 0.0]
    for tension in back.tensions:
        np.testing.assert_array_equal(tension.values, -grid.nodes)


def test_backward_transform_involution_and_signs(gravity2):
    g_minus = gravity2.flipped()
    forward = small_forward_run(g_minus)
    back = backward_transform(forward, gravity2)
    # realized tensions are nonnegative, so mapped ones are nonpositive
    assert max(t.values.max() for t in back.tensions) <= 1e-12
    again = backward_transform(back, g_minus)
    assert len(again.states) == len(forward.states)
    for a, b in zip(forward.states, again.states):
        assert np.array_equal(a.positions, b.positions)
        assert a.time == b.time
    for a, b in zip(forward.tensions, again.tensions):
        assert np.array_equal(a.values, b.values)


def test_backward_transform_energy_mirror(gravity2):
    g_minus = gravity2.flipped()
    forward = small_forward_run(g_minus)
    back = backward_transform(forward, gravity2)
    # relative energy from the upright state under g at time t equals the
    # relative energy from the stable state of -g at time -t
    for state in back.states:
        e_back = -EQUILIBRIUM_ENERGY - potential_energy(state, gravity2)
        source = next(s for s in forward.states if s.time == -state.time)
        e_fwd = potential_energy(source, g_minus) - EQUILIBRIUM_ENERGY
        assert abs(e_back - e_fwd) <= 1e-12


def test_backward_transform_gravity_contract(gravity2):
    forward = small_forward_run(gravity2.flipped())
    with pytest.raises(ContractError):
        backward_transform(forward, gravity2.flipped())


def test_branching_pair_quick(gravity2):
    grid = Grid(100)
    pair = branching_pair(3.0, 1e-2, grid, gravity2,
                          StepperConfig(dt_init=1e-4, dt_min=1e-10, dt_max=0.02))
    assert pair.separation >= 0.5
    # the frozen upright pair is an exact weak solution
    assert pair.stationary_residual.pde_residual_L2 <= 1e-10
    assert pair.stationary_residual.constraint_product_L2 <= 1e-10
    assert pair.stationary_residual.diss_inequality_slack >= -1e-10
    # realized tension signs: falling nonnegative, frozen nonpositive
    for tension in pair.falling.tensions:
        assert tension.values.min() >= -1e-12
    for tension in pair.stationary.tensions:
        assert tension.values.max() <= 0.0
