import numpy as np
import pytest

from whipflow import (ArcState, EnergyReport, GravitySpec, Grid, RegParams,
                      RegularizedMap, ScenarioSpec, TensionProfile,
                      Trajectory, build, compatibility_predicate,
                      constitutive_tension, decay_fit, generalized_residual,
                      hardy_check, relative_energy_identity_check, report,
                      sigma_decay_check)
from whipflow.diagnostics import EQUILIBRIUM_ENERGY
from whipflow.errors import ShapeError


@pytest.fixture(scope="module")
def rmap():
    return RegularizedMap(RegParams(1e-2), dim=2)


def stationary_pairs(grid, positions, sigma, times=(0.0, 1.0)):
    return [
        (ArcState(grid=grid, positions=positions, time=t),
         TensionProfile(grid=grid, values=sigma))
        for t in times
    ]


def test_report_downward_equilibrium(gravity2, rmap):
    grid = Grid(500)
    state = build(ScenarioSpec(kind="vertical_down"), grid, gravity2)
    rep = report(state, rmap, gravity2)
    assert rep.E == pytest.approx(-0.5, abs=1e-14)
    assert rep.E_rel == pytest.approx(0.0, abs=1e-14)
    assert rep.D == pytest.approx(0.0, abs=1e-10)
    assert rep.cos_alpha == pytest.approx(1.0, abs=1e-12)
    assert rep.max_stretch <= 1e-12
    assert rep.sigma_at_1 == pytest.approx(1.0, abs=1e-10)


def test_report_upward_equilibrium(gravity2, rmap):
    grid = Grid(500)
    state = build(ScenarioSpec(kind="vertical_up"), grid, gravity2)
    rep = report(state, rmap, gravity2)
    assert rep.E == pytest.approx(0.5, abs=1e-14)
    assert rep.E_rel == pytest.approx(1.0, abs=1e-14)
    assert rep.E_rel_back == pytest.approx(0.0, abs=1e-14)
    assert rep.D == pytest.approx(0.0, abs=1e-10)


def test_report_horizontal_segment(gravity2, rmap):
    grid = Grid(200)
    positions = np.zeros((grid.n_nodes, 2))
    positions[:, 0] = 1.0 - grid.nodes
    rep = report(ArcState(grid=grid, positions=positions), rmap, gravity2)
    assert rep.E == pytest.approx(0.0, abs=1e-14)
    assert rep.cos_alpha == pytest.approx(0.0, abs=1e-13)
    assert rep.D == pytest.approx(1.0, abs=1e-10)


def test_report_energy_forms_agree(gravity2, rmap):
    grid = Grid(100)
    for seed in (1, 2, 3):
        state = build(ScenarioSpec(kind="random_lipschitz", seed=seed),
                      grid, gravity2)
        rep = report(state, rmap, gravity2)
        assert abs(rep.E - rep.E_alt) <= 10.0 * grid.h
        assert rep.E_rel >= -10.0 * grid.h


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("cells", [2, 3, 200, 4000])
def test_equilibrium_energy_matches_quadrature(cells, dim):
    # trapezoid quadrature is exact on the affine hanging profile, so the
    # hard-coded reference of the relative energy must match it to rounding
    grid = Grid(cells)
    g = GravitySpec.down(dim)
    down = np.outer(1.0 - grid.nodes, g.direction)
    recomputed = grid.quad_trapezoid(down @ (-g.direction))
    assert abs(recomputed - EQUILIBRIUM_ENERGY) <= 1e-12


def test_generalized_residual_stationary_down(gravity2):
    grid = Grid(200)
    down = build(ScenarioSpec(kind="vertical_down"), grid, gravity2)
    res = generalized_residual(
        stationary_pairs(grid, down.positions, grid.nodes), gravity2)
    assert res.pde_residual_L2 <= 1e-10
    assert res.constraint_product_L2 <= 1e-10
    assert res.stretch_violation <= 1e-10
    assert abs(res.diss_inequality_slack) <= 1e-10


def test_generalized_residual_stationary_up(gravity2):
    grid = Grid(200)
    up = build(ScenarioSpec(kind="vertical_up"), grid, gravity2)
    res = generalized_residual(
        stationary_pairs(grid, up.positions, -grid.nodes), gravity2)
    assert res.pde_residual_L2 <= 1e-10
    assert res.constraint_product_L2 <= 1e-10
    assert res.stretch_violation <= 1e-10
    assert abs(res.diss_inequality_slack) <= 1e-10


def test_generalized_residual_needs_two_snapshots(gravity2):
    grid = Grid(20)
    down = build(ScenarioSpec(kind="vertical_down"), grid, gravity2)
    with pytest.raises(ShapeError):
        generalized_residual(
            stationary_pairs(grid, down.positions, grid.nodes, times=(0.0,)),
            gravity2,
        )


def test_relative_energy_identity_equilibria(gravity2):
    grid = Grid(300)
    down = build(ScenarioSpec(kind="vertical_down"), grid, gravity2)
    lhs, rhs, gap = relative_energy_identity_check(down, gravity2)
    assert abs(lhs) <= 1e-13 and abs(rhs) <= 1e-13
    up = build(ScenarioSpec(kind="vertical_up"), grid, gravity2)
    lhs, rhs, gap = relative_energy_identity_check(up, gravity2)
    assert lhs == pytest.approx(1.0, abs=1e-13)
    assert rhs == pytest.approx(1.0, abs=1e-13)
    assert gap <= 1e-13


def test_relative_energy_identity_random_states(gravity2):
    grid = Grid(128)
    for seed in range(5):
        state = build(ScenarioSpec(kind="random_lipschitz", seed=seed),
                      grid, gravity2)
        _, _, gap = relative_energy_identity_check(state, gravity2)
        assert gap <= 10.0 * grid.h ** 2


def test_hardy_linear_field():
    grid = Grid(200)
    f = np.outer(grid.nodes, [1.0, 0.0])
    assert hardy_check(f, grid) == pytest.approx(0.5, abs=1e-12)


def test_hardy_quadratic_field():
    grid = Grid(400)
    f = np.outer(grid.nodes ** 2, [0.0, 1.0])
    assert hardy_check(f, grid) == pytest.approx(0.1875, abs=1e-3)


def test_hardy_random_battery():
    rng = np.random.default_rng(123)
    grid = Grid(300)
    worst = 0.0
    for _ in range(100):
        coeffs = rng.normal(size=8) / (1.0 + np.arange(8)) ** 1.5
        f = np.zeros(grid.n_nodes)
        for k, c in enumerate(coeffs, start=1):
            f += c * np.sin(0.5 * np.pi * k * grid.nodes)
        f *= grid.nodes
        worst = max(worst, hardy_check(f, grid))
    assert worst <= 4.1


def test_hardy_rejects_degenerate_inputs():
    grid = Grid(50)
    with pytest.raises(ValueError):
        hardy_check(np.zeros(grid.n_nodes), grid)  # zero derivative
    bad = np.ones(grid.n_nodes)
    with pytest.raises(ValueError):
        hardy_check(bad, grid)  # does not vanish at 0


def synthetic_reports(times, e_rel, diss=None):
    out = []
    for k, (t, e) in enumerate(zip(times, e_rel)):
        d = 1.0 if diss is None else diss[k]
        out.append(EnergyReport(
            t=float(t), E=e + EQUILIBRIUM_ENERGY, E_alt=e + EQUILIBRIUM_ENERGY,
            E_rel=float(e), E_rel_back=1.0 - e, E_eps=0.0, D=float(d),
            cos_alpha=1.0, max_stretch=0.0, constraint_L1=0.0, sigma_at_1=1.0,
        ))
    return out


def test_decay_fit_exact_exponential():
    t = np.linspace(0.0, 3.0, 40)
    fit = decay_fit(synthetic_reports(t, np.exp(-3.0 * t)), (0.0, 3.0))
    assert fit.rate == pytest.approx(3.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_decay_fit_wobbled_exponential():
    t = np.linspace(0.0, 3.0, 200)
    e = np.exp(-3.0 * t) * (1.0 + 0.01 * np.sin(t))
    fit = decay_fit(synthetic_reports(t, e), (0.0, 3.0))
    assert abs(fit.rate - 3.0) <= 0.02
    assert fit.r_squared >= 0.999


def test_decay_fit_cbar0_ratio():
    t = np.linspace(0.0, 1.0, 20)
    e = np.exp(-t)
    fit = decay_fit(synthetic_reports(t, e, diss=2.0 * e), (0.0, 1.0))
    assert fit.cbar0_check == pytest.approx(0.5, abs=1e-12)


def test_decay_fit_refusals():
    t = np.linspace(0.0, 1.0, 20)
    with pytest.raises(ValueError):
        decay_fit(synthetic_reports(t, np.linspace(1.0, -0.1, 20)), (0.0, 1.0))
    with pytest.raises(ValueError):
        decay_fit(synthetic_reports(t[:5], np.exp(-t[:5])), (0.0, 1.0))


def constant_trajectory(grid, g, positions, sigma_values, times):
    states = tuple(
        ArcState(grid=grid, positions=positions, time=t) for t in times
    )
    tensions = tuple(
        TensionProfile(grid=grid, values=v) for v in sigma_values
    )
    return Trajectory(states=states, gravity=g, tensions=tensions)


def test_sigma_decay_stationary_tail_is_zero(gravity2):
    grid = Grid(100)
    down = build(ScenarioSpec(kind="vertical_down"), grid, gravity2)
    times = np.linspace(0.0, 2.0, 21)
    traj = constant_trajectory(grid, gravity2, down.positions,
                               [grid.nodes] * 21, times)
    entries = sigma_decay_check(traj, [0.0, 0.5, 1.0], c0=1.0 / 16.0)
    for entry in entries:
        assert entry.tail_integral == pytest.approx(0.0, abs=1e-13)
        assert entry.within


def test_sigma_decay_switched_tension(gravity2):
    # sigma = 0 on [0, 1), sigma = s afterwards: the tail at 0 integrates
    # the weighted distance of zero tension from the equilibrium profile,
    # which is exactly 1/2 per unit time
    grid = Grid(200)
    down = build(ScenarioSpec(kind="vertical_down"), grid, gravity2)
    times = np.linspace(0.0, 2.0, 41)
    sigmas = [np.zeros(grid.n_nodes) if t < 1.0 else grid.nodes for t in times]
    traj = constant_trajectory(grid, gravity2, down.positions, sigmas, times)
    entries = sigma_decay_check(traj, [0.0], c0=1.0 / 16.0)
    assert entries[0].tail_integral == pytest.approx(0.5, abs=1e-12)


def test_sigma_decay_tails_nonincreasing(gravity2):
    grid = Grid(100)
    down = build(ScenarioSpec(kind="vertical_down"), grid, gravity2)
    times = np.linspace(0.0, 3.0, 31)
    rng = np.random.default_rng(5)
    sigmas = []
    for t in times:
        wobble = np.minimum(grid.nodes, rng.uniform(0.3, 1.0)) * grid.nodes
        wobble[0] = 0.0
        sigmas.append(wobble)
    traj = constant_trajectory(grid, gravity2, down.positions, sigmas, times)
    t_grid = [0.0, 0.5, 1.0, 1.5, 2.0]
    entries = sigma_decay_check(traj, t_grid, c0=1.0 / 16.0)
    tails = [e.tail_integral for e in entries]
    assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))


def test_sigma_decay_requires_near_equilibrium(gravity2):
    grid = Grid(50)
    up = build(ScenarioSpec(kind="vertical_up"), grid, gravity2)
    times = np.linspace(0.0, 1.0, 21)
    traj = constant_trajectory(grid, gravity2, up.positions,
                               [-grid.nodes] * 21, times)
    with pytest.raises(ValueError):
        sigma_decay_check(traj, [0.0], c0=1.0 / 16.0)


def test_compatibility_predicate_equilibrium(gravity2):
    grid = Grid(100)
    down = build(ScenarioSpec(kind="vertical_down"), grid, gravity2)
    holds, lhs, rhs = compatibility_predicate(down, gravity2)
    assert not holds
    assert lhs == pytest.approx(0.0, abs=1e-10)
    assert rhs == pytest.approx(0.0, abs=1e-10)


def test_compatibility_predicate_straight_whip(gravity2):
    grid = Grid(100)
    state = build(ScenarioSpec(kind="straight_angle", alpha0=np.pi / 4),
                  grid, gravity2)
    holds, lhs, rhs = compatibility_predicate(state, gravity2)
    assert holds
    assert lhs == pytest.approx(0.0, abs=1e-9)
    assert rhs == pytest.approx(1.0 - np.sqrt(2.0) / 2.0, abs=1e-10)


def test_compatibility_predicate_right_angle(gravity2):
    grid = Grid(100)
    state = build(ScenarioSpec(kind="straight_angle", alpha0=np.pi / 2),
                  grid, gravity2)
    holds, lhs, rhs = compatibility_predicate(state, gravity2)
    assert holds
    assert rhs == pytest.approx(1.0, abs=1e-10)


def test_constitutive_tension_nonnegative_and_pinned(gravity2, rmap):
    grid = Grid(100)
    for seed in range(3):
        state = build(ScenarioSpec(kind="random_lipschitz", seed=seed),
                      grid, gravity2)
        profile = constitutive_tension(state, rmap)
        assert profile.values[0] == 0.0
        assert profile.values[1:-1].min() >= 0.0


def test_hardy_oracle_keeps_reference_rate_conservative():
    # the decay-rate reference is a quarter of the reciprocal of the Hardy
    # ratio bound; the sampled worst ratio must keep that choice on the
    # safe side
    from whipflow.diagnostics import REFERENCE_DECAY_RATE
    rng = np.random.default_rng(77)
    grid = Grid(300)
    worst = 0.0
    for _ in range(100):
        coeffs = rng.normal(size=6) / (1.0 + np.arange(6))
        f = np.zeros(grid.n_nodes)
        for k, c in enumerate(coeffs, start=1):
            f += c * np.sin(0.5 * np.pi * k * grid.nodes)
        f *= grid.nodes
        worst = max(worst, hardy_check(f, grid))
    assert 1.0 / (4.0 * worst) >= REFERENCE_DECAY_RATE


def test_dissipation_consistency_along_run(pendulum_run):
    # |−ΔE/Δt − D| stays within K (dt + h + eps); K frozen at 5 after a
    # reference measurement of 1.87 on this configuration
    run = pendulum_run
    E = np.array([r.E for r in run.reports])
    t = np.array([r.t for r in run.reports])
    D = np.array([r.D for r in run.reports])
    gaps = np.abs(-(np.diff(E) / np.diff(t)) - D[1:])
    scale = np.diff(t) + run.grid.h + run.eps
    assert (gaps / scale).max() <= 5.0


def test_energy_inequality_slack_along_run(pendulum_run):
    # discrete dissipation-inequality slack stays above -K (dt + h +
    # sqrt(eps)); K frozen at 100 after a reference measurement of 41 on
    # this configuration (the dip is the initial snap of the mollification
    # taper, which persists at fixed taper width)
    run = pendulum_run
    h = run.grid.h
    g_vec = run.gravity.direction
    slack_min = np.inf
    dt_max = 0.0
    for prev, state in zip(run.states, run.states[1:]):
        dt = state.time - prev.time
        dt_max = max(dt_max, dt)
        v = (state.positions - prev.positions) / dt
        slack = h * (np.sum(v[:-1] @ g_vec) - np.sum(v[:-1] ** 2))
        slack_min = min(slack_min, slack)
    assert slack_min >= -100.0 * (dt_max + h + np.sqrt(run.eps))


def test_relative_energy_nonnegative_along_run(pendulum_run):
    run = pendulum_run
    assert min(r.E_rel for r in run.reports) >= -10.0 * run.grid.h


def test_time_reversed_run_keeps_residual_scale(gravity2):
    # reversing a run (and negating its tension) changes the measured weak
    # residual only through the asymmetry of the time differences
    from whipflow import (RegParams, RegularizedMap, ScenarioSpec,
                          StepperConfig, Trajectory, backward_transform,
                          build, evolve, mollify)
    g_minus = gravity2.flipped()
    grid = Grid(80)
    rmap = RegularizedMap(RegParams(1e-2), dim=2)
    spec = ScenarioSpec(kind="straight_angle", alpha0=np.pi / 4,
                        mollify_radius=0.03, taper_width=0.05)
    init = mollify(build(spec, grid, g_minus), spec)
    states = [init]
    tensions = [constitutive_tension(init, rmap)]
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-10, dt_max=0.02)
    evolve(init, 0.6, rmap, g_minus, cfg, observer=lambda s, dt, it: (
        states.append(s), tensions.append(constitutive_tension(s, rmap))))
    forward = Trajectory(states=tuple(states), gravity=g_minus,
                         tensions=tuple(tensions))
    source = generalized_residual(forward.pairs(), g_minus)
    mapped = backward_transform(forward, gravity2)
    reversed_res = generalized_residual(mapped.pairs(), gravity2)
    assert reversed_res.pde_residual_L2 <= 2.0 * source.pde_residual_L2
    assert source.pde_residual_L2 <= 2.0 * reversed_res.pde_residual_L2
