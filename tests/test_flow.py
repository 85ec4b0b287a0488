import signal
from contextlib import contextmanager

import numpy as np
import pytest

from whipflow import flow
from whipflow import (ArcState, GravitySpec, Grid, RegularizedMap,
                      ScenarioSpec, StepperConfig, TensionProfile, Trajectory,
                      build, constitutive_tension, discrete_energy, evolve,
                      mollify, report, residual, step)
from whipflow.errors import (NumericDomainError, ShapeError, SolverFailure,
                             StepRejected, UnderResolvedError)
from whipflow.scenarios import KINDS, mollify_scales


def make_map(eps, dim=2):
    return RegularizedMap(eps, dim=dim)


def positions_from_tangents(grid, tangents):
    positions = np.zeros((grid.n_nodes, tangents.shape[1]))
    positions[:-1] = -grid.h * np.cumsum(tangents[::-1], axis=0)[::-1]
    return positions


def discrete_steady_state(grid, rmap, g):
    """Exact fixed point of the scheme: flux at midpoint i equals
    -g * s_{i+1}, so the discrete flux divergence cancels gravity at every
    non-pinned node including the free end with its zero ghost flux."""
    flux = np.outer(-grid.nodes[1:], g.direction)
    tangents = rmap.forward(flux)
    return ArcState(grid=grid, positions=positions_from_tangents(grid, tangents))


def test_gravity_must_be_unit():
    with pytest.raises(ValueError):
        GravitySpec(np.array([0.0, -2.0]))
    g = GravitySpec.down(3)
    assert g.dim == 3 and g.direction[-1] == -1.0
    assert np.all(g.flipped().direction == -g.direction)


def test_state_validation():
    grid = Grid(8)
    with pytest.raises(ValueError):
        ArcState(grid=grid, positions=np.ones((9, 2)))  # not pinned
    with pytest.raises(ShapeError):
        ArcState(grid=grid, positions=np.zeros((8, 2)))


def test_stepper_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(dt_init=1e-3, dt_min=1e-2, dt_max=1.0)


def test_residual_vanishes_at_discrete_steady_state(gravity2):
    grid = Grid(64)
    rmap = make_map(0.05)
    state = discrete_steady_state(grid, rmap, gravity2)
    res = residual(state, state, dt=1.0, rmap=rmap, g=gravity2)
    assert np.abs(res).max() <= 1e-10


def test_residual_on_horizontal_segment(gravity2):
    # constant tangent: the flux divergence vanishes at interior nodes,
    # leaving exactly minus gravity
    grid = Grid(50)
    rmap = make_map(1.0)
    positions = np.zeros((grid.n_nodes, 2))
    positions[:, 0] = 1.0 - grid.nodes
    state = ArcState(grid=grid, positions=positions)
    res = residual(state, state, dt=1.0, rmap=rmap, g=gravity2)
    assert np.abs(res[1:-1] - (-gravity2.direction)).max() <= 1e-11
    assert np.all(res[-1] == 0.0)


def test_residual_neumann_end_zero_tangent(gravity2):
    # a state whose first midpoint tangent vanishes has zero boundary flux,
    # so the free-end row is pure velocity minus gravity
    grid = Grid(10)
    rmap = make_map(0.3)
    tangents = np.zeros((grid.n_cells, 2))
    tangents[1:, 0] = 1.0
    state = ArcState(grid=grid, positions=positions_from_tangents(grid, tangents))
    res = residual(state, state, dt=1.0, rmap=rmap, g=gravity2)
    np.testing.assert_allclose(res[0], -gravity2.direction, atol=1e-14)


def test_residual_validation(gravity2):
    grid = Grid(10)
    state = build(ScenarioSpec(kind="vertical_down"), grid, gravity2)
    other = build(ScenarioSpec(kind="vertical_down"), Grid(11), gravity2)
    with pytest.raises(ShapeError):
        residual(state, other, 0.1, make_map(0.1), gravity2)
    with pytest.raises(ValueError):
        residual(state, state, -0.1, make_map(0.1), gravity2)


def test_step_fixed_point_returns_same_state(gravity2):
    grid = Grid(64)
    rmap = make_map(0.05)
    state = discrete_steady_state(grid, rmap, gravity2)
    new = step(state, 0.5, rmap, gravity2)
    assert np.abs(new.positions - state.positions).max() <= 1e-9
    assert new.time == pytest.approx(state.time + 0.5)


def test_step_decreases_energy_away_from_equilibrium(gravity2):
    grid = Grid(80)
    rmap = make_map(1e-2)
    spec = ScenarioSpec(kind="straight_angle", alpha0=1.1,
                        mollify_radius=0.03, taper_width=0.05)
    state = mollify(build(spec, grid, gravity2), spec)
    before = discrete_energy(state, rmap, gravity2)
    new = step(state, 1e-2, rmap, gravity2)
    after = discrete_energy(new, rmap, gravity2)
    assert after < before


def test_accepted_state_is_inverted_once(monkeypatch, gravity2):
    # the stepper's last evaluation is at the accepted state, so the
    # observer-side functionals and the next step's first evaluation must
    # all reuse that radial inversion
    grid = Grid(80)
    rmap = make_map(1e-2)
    spec = ScenarioSpec(kind="quarter_circle", mollify_radius=0.03,
                        taper_width=0.05)
    state = mollify(build(spec, grid, gravity2), spec)

    inversions = []
    evaluations = []  # inversion count before and after each local_calculus
    invert_radial = RegularizedMap._invert_radial
    local_calculus = RegularizedMap.local_calculus

    def counted_invert_radial(self, r):
        inversions.append(1)
        return invert_radial(self, r)

    def logged_local_calculus(self, tau):
        before = len(inversions)
        out = local_calculus(self, tau)
        evaluations.append((before, len(inversions)))
        return out

    monkeypatch.setattr(RegularizedMap, "_invert_radial", counted_invert_radial)
    monkeypatch.setattr(RegularizedMap, "local_calculus", logged_local_calculus)

    new = step(state, 1e-2, rmap, gravity2)
    assert len(evaluations) > 1  # Newton moved off the initial guess
    settled = len(inversions)
    report(new, rmap, gravity2)
    discrete_energy(new, rmap, gravity2)
    constitutive_tension(new, rmap)
    assert len(inversions) == settled

    evaluations.clear()
    step(new, 1e-2, rmap, gravity2)
    first_before, first_after = evaluations[0]
    assert first_after == first_before == settled
    assert len(inversions) > settled


def test_pin_exact_after_steps(gravity2):
    grid = Grid(60)
    rmap = make_map(1e-2)
    spec = ScenarioSpec(kind="quarter_circle", mollify_radius=0.04,
                        taper_width=0.06)
    state = mollify(build(spec, grid, gravity2), spec)
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-9, dt_max=0.02)
    seen = []
    evolve(state, 0.3, rmap, gravity2, cfg,
           observer=lambda s, dt, it: seen.append(s))
    assert len(seen) > 5
    for s in seen:
        assert np.all(s.positions[-1] == 0.0)


def test_vertical_release_stays_near_equilibrium(gravity2):
    grid = Grid(100)
    rmap = make_map(1e-2)
    spec = ScenarioSpec(kind="vertical_down", mollify_radius=0.02,
                        taper_width=0.04)
    init = mollify(build(spec, grid, gravity2), spec)
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-9, dt_max=0.02)
    final = evolve(init, 1.0, rmap, gravity2, cfg)
    down = build(ScenarioSpec(kind="vertical_down"), grid, gravity2)
    gap = final.positions - down.positions
    distance = np.sqrt(grid.quad_trapezoid(np.sum(gap * gap, axis=1)))
    assert distance <= 0.05


def test_evolve_empty_horizon_returns_input(gravity2):
    grid = Grid(40)
    rmap = make_map(0.1)
    state = build(ScenarioSpec(kind="vertical_down"), grid, gravity2)
    calls = []
    out = evolve(state, state.time, rmap, gravity2,
                 StepperConfig(dt_init=1e-3, dt_min=1e-9, dt_max=0.1),
                 observer=lambda *a: calls.append(a))
    assert out is state
    assert calls == []
    with pytest.raises(ValueError):
        evolve(state, -1.0, rmap, gravity2,
               StepperConfig(dt_init=1e-3, dt_min=1e-9, dt_max=0.1))


def test_energy_monotone_and_dissipation_budget(gravity2):
    grid = Grid(100)
    rmap = make_map(1e-2)
    spec = ScenarioSpec(kind="quarter_circle", mollify_radius=0.02,
                        taper_width=0.04)
    init = mollify(build(spec, grid, gravity2), spec)
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-9, dt_max=0.02)
    energies = [discrete_energy(init, rmap, gravity2)]
    budget = 0.0
    prev = [init]

    def observer(state, dt, iters):
        nonlocal budget
        energies.append(discrete_energy(state, rmap, gravity2))
        v = (state.positions - prev[0].positions) / dt
        budget += dt * grid.h * float(np.sum(v[:-1] ** 2))
        prev[0] = state

    evolve(init, 1.0, rmap, gravity2, cfg, observer=observer)
    assert float(np.diff(energies).max()) <= 1e-9
    assert budget <= energies[0] - energies[-1] + 1e-6


def test_grid_refinement_first_order_in_time(gravity2):
    # backward Euler with adaptive steps capped well below the spatial
    # error keeps the spatial second-order visible; the combined measured
    # order must stay at least ~1
    rmap = make_map(1e-2)
    spec_kwargs = dict(kind="quarter_circle", mollify_radius=0.04,
                       taper_width=0.08)
    finals = {}
    for n in (50, 100, 200):
        grid = Grid(n)
        spec = ScenarioSpec(**spec_kwargs)
        init = mollify(build(spec, grid, gravity2), spec)
        cfg = StepperConfig(dt_init=5e-4, dt_min=1e-10, dt_max=2e-3)
        finals[n] = evolve(init, 0.25, rmap, gravity2, cfg)

    def l2_gap(coarse, fine):
        ratio = fine.grid.n_cells // coarse.grid.n_cells
        diff = fine.positions[::ratio] - coarse.positions
        return np.sqrt(coarse.grid.quad_trapezoid(np.sum(diff * diff, axis=1)))

    gap_coarse = l2_gap(finals[50], finals[100])
    gap_fine = l2_gap(finals[100], finals[200])
    order = np.log2(gap_coarse / gap_fine)
    assert order >= 0.9


def test_rotation_equivariance(gravity2):
    rng = np.random.default_rng(21)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    grid = Grid(60)
    rmap = make_map(1e-2)
    spec = ScenarioSpec(kind="quarter_circle", mollify_radius=0.04,
                        taper_width=0.06)
    init = mollify(build(spec, grid, gravity2), spec)
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-9, dt_max=0.01)
    plain = evolve(init, 0.2, rmap, gravity2, cfg)
    rotated = evolve(
        ArcState(grid=grid, positions=init.positions @ q.T), 0.2, rmap,
        GravitySpec(q @ gravity2.direction), cfg,
    )
    assert np.abs(rotated.positions - plain.positions @ q.T).max() <= 1e-8


def test_hard_failure_reports_diagnostics(gravity2, monkeypatch):
    grid = Grid(40)
    rmap = make_map(1e-3)
    spec = ScenarioSpec(kind="quarter_circle", mollify_radius=0.06,
                        taper_width=0.1)
    init = mollify(build(spec, grid, gravity2), spec)
    # a single permitted dt with a one-iteration budget cannot converge
    monkeypatch.setattr(flow, "NEWTON_MAX_ITER", 1)
    cfg = StepperConfig(dt_init=0.1, dt_min=0.1, dt_max=0.1)
    with pytest.raises(SolverFailure) as err:
        evolve(init, 1.0, rmap, gravity2, cfg)
    assert "time" in err.value.diagnostics


def test_banded_packing_matches_dense_solve():
    # the lower-band packing and the banded Cholesky solve against a dense
    # reference, for both ambient dimensions
    rng = np.random.default_rng(33)
    from whipflow.flow import _banded_from_blocks, solve_banded
    for d in (2, 3):
        n = 7
        base = rng.normal(size=(n, d, d))
        blocks = base @ np.transpose(base, (0, 2, 1)) + 3.0 * np.eye(d)
        diag = blocks + np.eye(d)
        diag[1:] += blocks[:-1]
        dense = np.zeros((n * d, n * d))
        for i in range(n):
            dense[i * d:(i + 1) * d, i * d:(i + 1) * d] = diag[i]
            if i < n - 1:
                dense[i * d:(i + 1) * d, (i + 1) * d:(i + 2) * d] = -blocks[i]
                dense[(i + 1) * d:(i + 2) * d, i * d:(i + 1) * d] = -blocks[i]
        rhs = rng.normal(size=n * d)
        expected = np.linalg.solve(dense, rhs)
        ab = _banded_from_blocks(diag, -blocks[:-1], d)
        got = solve_banded(ab, rhs.copy())
        assert np.abs(got - expected).max() <= 1e-10


def test_indefinite_newton_band_rejects_the_step_naming_the_row():
    # Cholesky certifies convexity: a band whose leading 3 x 3 minor is
    # positive definite but whose 4 x 4 minor is not fails at row 3
    from whipflow.flow import _banded_from_blocks, solve_banded
    d, n = 2, 4
    diag = np.tile(2.0 * np.eye(d), (n, 1, 1))
    lower = np.tile(-0.5 * np.eye(d), (n - 1, 1, 1))
    diag[1, 1, 1] = -1.0
    ab = _banded_from_blocks(diag, lower, d)
    with pytest.raises(StepRejected,
                       match="Newton Hessian not positive definite at row 3"):
        solve_banded(ab, np.ones(n * d))


def test_three_dimensional_evolution(gravity3):
    grid = Grid(100)
    rmap = make_map(1e-2, dim=3)
    spec = ScenarioSpec(kind="helix", geom_eps=0.2, alpha0=1.0,
                        mollify_radius=0.02, taper_width=0.04)
    init = mollify(build(spec, grid, gravity3), spec)
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-9, dt_max=0.01)
    energies = [discrete_energy(init, rmap, gravity3)]
    evolve(init, 0.3, rmap, gravity3, cfg, observer=lambda s, dt, it:
           energies.append(discrete_energy(s, rmap, gravity3)))
    assert len(energies) > 10
    assert float(np.diff(energies).max()) <= 1e-9


def test_trajectory_validation(gravity2):
    grid = Grid(10)
    s0 = build(ScenarioSpec(kind="vertical_down"), grid, gravity2)
    s1 = ArcState(grid=grid, positions=s0.positions, time=1.0)
    tensions = (TensionProfile(grid=grid, values=grid.nodes),) * 2
    traj = Trajectory(states=(s0, s1), gravity=gravity2, tensions=tensions)
    assert traj.times.tolist() == [0.0, 1.0]
    with pytest.raises(ValueError):
        Trajectory(states=(s1, s0), gravity=gravity2, tensions=tensions)
    with pytest.raises(ShapeError):
        Trajectory(states=(s0, s1), gravity=gravity2, tensions=tensions[:1])
    assert traj.pairs() == list(zip((s0, s1), tensions))


def test_no_progress_newton_update_rejects_the_step_at_once(monkeypatch,
                                                            gravity2):
    solves = []

    def zero_solve(ab, rhs):
        solves.append(rhs.size)
        return np.zeros_like(rhs)

    monkeypatch.setattr("whipflow.flow.solve_banded", zero_solve)
    grid = Grid(16)
    init = build(ScenarioSpec(kind="quarter_circle"), grid, gravity2)
    with pytest.raises(StepRejected, match="update 1 left the positions"):
        step(init, 1e-2, make_map(0.1), gravity2)
    assert len(solves) == 1


def _out_of_domain(flux, jac, pot):
    raise NumericDomainError("trial outside the domain")


def _above_armijo(flux, jac, pot):
    return flux, jac, pot + 1.0


@pytest.mark.parametrize("spoil, message", [
    (_out_of_domain, "line search left the numeric domain"),
    (_above_armijo, "line search failed at residual"),
], ids=["numeric_domain", "armijo"])
def test_line_search_halves_to_1e_10_then_rejects(monkeypatch, gravity2,
                                                  spoil, message):
    # the initial guess is evaluated as it is, every trial through spoil:
    # alpha = 1, 1/2, ..., 2^-33 are tried, and 2^-34 < 1e-10 rejects
    grid = Grid(16)
    rmap = make_map(0.1)
    init = build(ScenarioSpec(kind="quarter_circle"), grid, gravity2)
    calls = []
    local_calculus = rmap.local_calculus

    def spoiled(tau):
        calls.append(1)
        out = local_calculus(tau)
        return out if len(calls) == 1 else spoil(*out)

    monkeypatch.setattr(rmap, "local_calculus", spoiled)
    with pytest.raises(StepRejected, match=message):
        step(init, 1e-2, rmap, gravity2)
    assert len(calls) == 1 + 34


# the step controls of the simulate command's defaults
CLI_STEPPER = StepperConfig(dt_init=1e-3, dt_min=1e-9, dt_max=0.02)


@contextmanager
def wall_clock_budget(seconds):
    """Fail the enclosed block with TimeoutError once it has run for
    ``seconds`` of wall-clock time, so a crawl fails rather than hangs."""

    def late(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, late)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def release(kind, eps, cells, dim):
    """Initial state, map and gravity of ``simulate`` with its defaults."""
    grid = Grid(cells)
    g = GravitySpec.down(dim)
    radius, width = mollify_scales(grid.h)
    spec = ScenarioSpec(kind=kind, mollify_radius=radius, taper_width=width)
    return mollify(build(spec, grid, g), spec), make_map(eps, dim), g


@pytest.mark.parametrize("cells, eps", [(2000, 1e-3), (4000, 1e-2)])
def test_large_grid_release_reaches_the_horizon_without_rejections(cells, eps):
    # the residual floor misses the O(mach |eta| / (eps h^2)) rounding of
    # the flux divergence on these grids; without the decrement exit each
    # step stalled below it, was rejected and halved dt, and the run crawled
    init, rmap, g = release("quarter_circle", eps, cells, 2)
    stats = {}
    with wall_clock_budget(20.0):
        evolve(init, 1.0, rmap, g, CLI_STEPPER, stats=stats)
    assert abs(stats["final_time"] - 1.0) <= 1e-12
    assert stats["rejections"] == 0
    assert stats["decrement_exits"] > 0
    assert stats["residual_exits"] + stats["decrement_exits"] == stats["steps"]


MATRIX = [(kind, dim, eps, cells)
          for kind in KINDS for dim in (2, 3) if kind != "helix" or dim == 3
          for eps in (1e-4, 1.0) for cells in (2, 2000)]


@pytest.mark.parametrize("kind, dim, eps, cells", MATRIX)
def test_every_scenario_finishes_or_fails_cleanly(kind, dim, eps, cells):
    if kind == "helix" and cells == 2:
        # 1.3 cells per turn of the default helix: build refuses it
        with pytest.raises(UnderResolvedError):
            release(kind, eps, cells, dim)
        return
    init, rmap, g = release(kind, eps, cells, dim)
    stats = {}
    with wall_clock_budget(20.0):
        try:
            evolve(init, 0.1, rmap, g, CLI_STEPPER, stats=stats)
        except SolverFailure:
            return
    assert abs(stats["final_time"] - 0.1) <= 1e-12


def test_decrement_exit_leaves_a_solve_error_below_1e_12(monkeypatch):
    # one more Newton update from each state the decrement accepted
    # measures the solve error that state carries
    init, rmap, g = release("quarter_circle", 1e-3, 2000, 2)
    accepted = []
    step_core = flow._step_core

    def recording_step_core(prev, dt, rmap, g):
        state, iters, exit_test = step_core(prev, dt, rmap, g)
        if exit_test == "decrement":
            accepted.append((prev, dt, state))
        return state, iters, exit_test

    monkeypatch.setattr(flow, "_step_core", recording_step_core)
    with wall_clock_budget(20.0):
        evolve(init, 1.0, rmap, g, CLI_STEPPER)
    assert len(accepted) > 10
    h = init.grid.h
    for prev, dt, state in accepted:
        _, jac, _ = rmap.local_calculus(state.tangents)
        res = residual(state, prev, dt, rmap, g)
        update = flow._newton_update(jac, res, h, np.eye(2) / dt)
        assert np.abs(update).max() <= 1e-12
