import os
import re
import signal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from test_regmap import broadcast_jacobian

from whipflow import flow
from whipflow import (ArcState, GravitySpec, Grid, RegularizedMap,
                      ScenarioSpec, StepperConfig, build,
                      constitutive_tension, discrete_energy, evolve,
                      mollify, report, residual, step)
from whipflow.diagnostics import Reporter
from whipflow.errors import (NumericDomainError, ShapeError, SolverFailure,
                             StepRejected, UnderResolvedError)
from whipflow.regmap import EPS_MAX, EPS_MIN
from whipflow.scenarios import KINDS, branching_pair, upright_release


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
    for direction in ([np.nan, 0.0], [0.0, np.nan, 0.0]):
        with pytest.raises(ValueError, match="unit vector"):
            GravitySpec(np.array(direction))
    g = GravitySpec.down(3)
    assert g.dim == 3 and g.direction[-1] == -1.0
    assert np.all(g.flipped().direction == -g.direction)


def test_state_validation():
    grid = Grid(8)
    with pytest.raises(ValueError):
        ArcState(grid=grid, positions=np.ones((9, 2)))  # not pinned
    with pytest.raises(ShapeError):
        ArcState(grid=grid, positions=np.zeros((8, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_state_checks_give_the_same_verdicts_on_every_entry(bad):
    # any non-finite entry fails the finite check, also one in the pinned
    # row; a pinned-row entry other than +-0, however small, fails the pin
    grid = Grid(3)
    base = np.arange(8.0).reshape(4, 2)
    base[-1] = 0.0
    for i in range(4):
        for p in range(2):
            pos = base.copy()
            pos[i, p] = bad
            with pytest.raises(NumericDomainError, match="non-finite"):
                ArcState(grid=grid, positions=pos)
    for pinned in ([5e-324, 0.0], [0.0, 5e-324], [1.0, 0.0], [0.0, -1.0],
                   [1.0, 1.0]):
        pos = base.copy()
        pos[-1] = pinned
        with pytest.raises(ValueError, match="pinned exactly"):
            ArcState(grid=grid, positions=pos)
    for pinned in ([-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]):
        pos = base.copy()
        pos[-1] = pinned
        state = ArcState(grid=grid, positions=pos)
        assert state.positions.tobytes() == pos.tobytes()


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


@pytest.mark.parametrize("dt", [np.inf, np.nan, 0.0, -np.inf])
def test_a_step_size_must_be_positive_and_finite(monkeypatch, gravity2, dt):
    # refused before any work: no evaluation and no Newton iteration
    grid = Grid(20)
    init = build(ScenarioSpec(kind="quarter_circle"), grid, gravity2)
    rmap = make_map(0.1)
    monkeypatch.setattr(flow, "_start", None)
    monkeypatch.setattr(rmap, "invert", None)
    for call in (step, lambda s, dt, m, g: residual(s, s, dt, m, g)):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            call(init, dt, rmap, gravity2)


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
    spec = ScenarioSpec(kind="straight_angle", alpha0=1.1)
    state = mollify(build(spec, grid, gravity2))
    before = discrete_energy(state, rmap, gravity2)
    new = step(state, 1e-2, rmap, gravity2)
    after = discrete_energy(new, rmap, gravity2)
    assert after < before


def test_accepted_state_is_inverted_once(monkeypatch, gravity2):
    # the step's last evaluation is at the accepted state, and the observer
    # gets that state's flux and potential, the initial state's from the
    # evaluation the first step starts from: a run whose reporter and
    # constitutive tension read them inverts the map inside local_calculus
    # alone, and evaluates each state, the initial one included, once
    grid = Grid(80)
    rmap = make_map(1e-2)
    spec = ScenarioSpec(kind="quarter_circle")
    init = mollify(build(spec, grid, gravity2))

    inversions = []
    evaluated = []  # the tangent field of every local_calculus call
    invert_radial = RegularizedMap._invert_radial
    local_calculus = RegularizedMap.local_calculus

    def counted_invert_radial(self, r):
        inversions.append(1)
        return invert_radial(self, r)

    def logged_local_calculus(self, tau):
        evaluated.append(np.asarray(tau).tobytes())
        return local_calculus(self, tau)

    monkeypatch.setattr(RegularizedMap, "_invert_radial", counted_invert_radial)
    monkeypatch.setattr(RegularizedMap, "local_calculus", logged_local_calculus)

    reporter = Reporter(grid, gravity2)
    tensions, states, steps = [], [], []

    def observer(state, dt, iters, flux, pot):
        reporter.add(state, dt, iters, flux, pot)
        tensions.append(constitutive_tension(state, flux))
        states.append(state)
        steps.append((dt, iters))

    evolve(init, 0.3, rmap, gravity2,
           StepperConfig(dt_init=1e-3, dt_min=1e-9, dt_max=0.02),
           observer=observer)
    reporter.flush()
    assert len(states) > 1 + 5 and states[0] is init
    assert len(inversions) == len(evaluated)
    for state in states:
        assert evaluated.count(state.tangents.tobytes()) == 1
    # the handed arrays are bitwise those a fresh evaluation gives
    monkeypatch.undo()
    rows = [[*report(s, rmap, gravity2).values(), *step]
            for s, step in zip(states, steps)]
    assert np.array_equal(reporter.table.view(np.uint64),
                          np.array(rows).view(np.uint64))
    for state, tension in zip(states, tensions):
        fresh = constitutive_tension(state, rmap.invert(state.tangents))
        assert np.array_equal(tension.values, fresh.values)


def test_pin_exact_after_steps(gravity2):
    grid = Grid(60)
    rmap = make_map(1e-2)
    spec = ScenarioSpec(kind="quarter_circle")
    state = mollify(build(spec, grid, gravity2))
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-9, dt_max=0.02)
    seen = []
    evolve(state, 0.3, rmap, gravity2, cfg,
           observer=lambda s, *_: seen.append(s))
    # the observer sees the initial state, then each accepted one
    assert seen[0] is state and len(seen) > 1 + 5
    for s in seen:
        assert np.all(s.positions[-1] == 0.0)


def test_vertical_release_stays_near_equilibrium(gravity2):
    grid = Grid(100)
    rmap = make_map(1e-2)
    spec = ScenarioSpec(kind="vertical_down")
    init = mollify(build(spec, grid, gravity2))
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
                 observer=lambda *a: calls.append(a[:3]))
    assert out is state
    # the observer sees the initial state alone
    (seen, dt, iters), = calls
    assert seen is state and (dt, iters) == (0.0, 0)
    with pytest.raises(ValueError):
        evolve(state, -1.0, rmap, gravity2,
               StepperConfig(dt_init=1e-3, dt_min=1e-9, dt_max=0.1))


def test_energy_monotone_and_dissipation_budget(gravity2):
    grid = Grid(100)
    rmap = make_map(1e-2)
    spec = ScenarioSpec(kind="quarter_circle")
    init = mollify(build(spec, grid, gravity2))
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-9, dt_max=0.02)
    energies = []
    budget = 0.0
    prev = [init]

    def observer(state, dt, iters, flux, pot):
        nonlocal budget
        energies.append(discrete_energy(state, rmap, gravity2))
        if state is not init:
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
    spec = ScenarioSpec(kind="quarter_circle")
    finals = {}
    for n in (50, 100, 200):
        grid = Grid(n)
        init = mollify(build(spec, grid, gravity2))
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
    spec = ScenarioSpec(kind="quarter_circle")
    init = mollify(build(spec, grid, gravity2))
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
    spec = ScenarioSpec(kind="quarter_circle")
    init = mollify(build(spec, grid, gravity2))
    # a single permitted dt with a one-iteration budget cannot converge
    monkeypatch.setattr(flow, "NEWTON_MAX_ITER", 1)
    cfg = StepperConfig(dt_init=0.1, dt_min=0.1, dt_max=0.1)
    with pytest.raises(SolverFailure) as err:
        evolve(init, 1.0, rmap, gravity2, cfg)
    assert "time" in err.value.diagnostics


def banded_from_blocks(diag, lower, d):
    """Pack a symmetric block-tridiagonal matrix (d x d blocks) into LAPACK
    lower band storage, ``ab[i - j, j] = A[i, j]``, from its diagonal
    blocks and the blocks below them: the dense path ``flow._newton_band``
    replaced, kept as its reference."""
    n_blocks = diag.shape[0]
    ab = np.zeros((2 * d, n_blocks * d))
    for p in range(d):
        for q in range(d):
            if p >= q:
                ab[p - q, q::d] = diag[:, p, q]
            ab[d + p - q, q::d][: n_blocks - 1] = lower[:, p, q]
    return ab


def dense_newton_blocks(jac, h, dt):
    """(diagonal blocks, blocks below them) of M/dt + K from the dense flux
    Jacobians ``jac``, in the dense path's float order."""
    blocks = jac / (h * h)
    diag = blocks + np.eye(jac.shape[-1]) / dt
    diag[1:] += blocks[:-1]
    return diag, -blocks[:-1]


def test_banded_packing_matches_dense_solve():
    # the band written from the radial form and the banded Cholesky solve
    # against a dense reference, for both ambient dimensions
    rng = np.random.default_rng(33)
    from whipflow.flow import _newton_band, solve_banded
    h, dt = 0.5, 0.25
    for d in (2, 3):
        n = 7
        # a random flux and radial form whose Jacobians are positive definite
        kappa = rng.normal(size=(n, d))
        inv_c1 = rng.uniform(0.5, 3.0, size=n)
        gain = rng.uniform(0.0, 2.0, size=n)
        jac = inv_c1[:, None, None] * np.eye(d) \
            + gain[:, None, None] * kappa[:, :, None] * kappa[:, None, :]
        diag, lower = dense_newton_blocks(jac, h, dt)
        dense = np.zeros((n * d, n * d))
        for i in range(n):
            dense[i * d:(i + 1) * d, i * d:(i + 1) * d] = diag[i]
            if i < n - 1:
                dense[(i + 1) * d:(i + 2) * d, i * d:(i + 1) * d] = lower[i]
                dense[i * d:(i + 1) * d, (i + 1) * d:(i + 2) * d] = lower[i]
        rhs = rng.normal(size=n * d)
        expected = np.linalg.solve(dense, rhs)
        ab = _newton_band(kappa, (inv_c1, gain), h, dt)
        got = solve_banded(ab, rhs.copy())
        assert np.abs(got - expected).max() <= 1e-10


def test_indefinite_newton_band_rejects_the_step_naming_the_row():
    # Cholesky certifies convexity: a band whose leading 3 x 3 minor is
    # positive definite but whose 4 x 4 minor is not fails at row 3.  With
    # h = dt = 1 the diagonal blocks are J_0 + I = 1.5 I, then J_1 + J_0 + I
    # with J_1 = diag(0.5, -3), and the block between them is -J_0 = -0.5 I
    from whipflow.flow import _newton_band, solve_banded
    d, n = 2, 4
    kappa = np.zeros((n, d))
    kappa[1, 1] = 1.0
    inv_c1 = np.full(n, 0.5)
    gain = np.zeros(n)
    gain[1] = -3.5
    ab = _newton_band(kappa, (inv_c1, gain), 1.0, 1.0)
    with pytest.raises(StepRejected,
                       match="Newton Hessian not positive definite at row 3"):
        solve_banded(ab, np.ones(n * d))


@pytest.mark.parametrize("n_cells", [2, 7, 200])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("eps", [EPS_MIN, 1e-2, EPS_MAX])
def test_newton_band_is_bitwise_the_dense_path(eps, dim, n_cells):
    # the band written from the radial form against the broadcast Jacobian
    # packed block by block, signbits included: a -0 product k_p k_q off
    # the diagonal turns +0 in J, so the block below carries -0
    rng = np.random.default_rng(10 * n_cells + dim)
    rmap = RegularizedMap(eps, dim=dim)
    tau = rng.normal(size=(n_cells, dim)) \
        * 10.0 ** rng.uniform(-3.0, 3.0, size=(n_cells, 1))
    pick = rng.random(tau.shape)
    tau[pick < 0.15] = 0.0
    tau[pick > 0.85] = -0.0
    tau[0] = 0.0
    tau[0, :2] = -0.0, 0.7  # a -0 component of a nonzero flux
    tau[-1] = -0.0  # an all-zero row
    if n_cells > 2:
        tau[1] = 0.0  # an all +0 row
        tau[2, 0] = -5e-320  # subnormal products round to +-0
    h, dt = 1.0 / n_cells, 1e-3
    kappa, radial, _ = rmap.local_calculus(tau)
    got = flow._newton_band(kappa, radial, h, dt)
    expected = banded_from_blocks(
        *dense_newton_blocks(broadcast_jacobian(rmap, tau), h, dt), dim)
    assert got.flags.f_contiguous and got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_three_dimensional_evolution(gravity3):
    grid = Grid(100)
    rmap = make_map(1e-2, dim=3)
    spec = ScenarioSpec(kind="helix", geom_eps=0.2, alpha0=1.0)
    init = mollify(build(spec, grid, gravity3))
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-9, dt_max=0.01)
    energies = []
    evolve(init, 0.3, rmap, gravity3, cfg, observer=lambda s, *_:
           energies.append(discrete_energy(s, rmap, gravity3)))
    assert len(energies) > 10
    assert float(np.diff(energies).max()) <= 1e-9


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
    spec = ScenarioSpec(kind=kind)
    return mollify(build(spec, grid, g)), make_map(eps, dim), g


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

    def recording_step_core(prev, dt, rmap, g, calc):
        out = step_core(prev, dt, rmap, g, calc)
        if out[2] == "decrement":
            accepted.append((prev, dt, out[0]))
        return out

    monkeypatch.setattr(flow, "_step_core", recording_step_core)
    with wall_clock_budget(20.0):
        evolve(init, 1.0, rmap, g, CLI_STEPPER)
    assert len(accepted) > 10
    h = init.grid.h
    for prev, dt, state in accepted:
        kappa, radial, _ = rmap.local_calculus(state.tangents)
        res = residual(state, prev, dt, rmap, g)
        update = flow._newton_update(kappa, radial, res, h, dt)
        assert np.abs(update).max() <= 1e-12


def test_falling_branch_approaches_the_folding_fall(gravity2):
    # at eps = 0 the release from upright is a folding fall: the free part
    # drops at unit speed, the part below the pin hangs,
    # eta(s, t).e = max(eta_0(s).e - t, -(1 - s)) with e = -g; it is linear
    # in time, so backward Euler at a fixed dt is exact for it and the L2
    # distance at T measures eps alone (about 0.3 per decade of eps)
    grid = Grid(200)
    init = upright_release(grid, gravity2)
    e = -gravity2.direction
    distances = []
    with wall_clock_budget(20.0):
        for eps in (1e-2, 1e-3, 1e-4, 1e-5):
            rmap = make_map(eps)
            state = init
            for _ in range(200):
                state = step(state, 0.005, rmap, gravity2)
            height = np.maximum(init.positions @ e - state.time,
                                -(1.0 - grid.nodes))
            diff = state.positions - np.outer(height, e)
            distances.append(
                np.sqrt(grid.quad_trapezoid(np.sum(diff * diff, axis=1))))
    assert abs(state.time - 1.0) <= 1e-12
    assert all(a > b for a, b in zip(distances, distances[1:]))
    orders = np.log10(np.array(distances[:-1]) / np.array(distances[1:]))
    assert np.all((orders >= 0.15) & (orders <= 0.45)), orders


def accepted_steps(init, horizon, rmap, g, **kwargs):
    """(state, dt, Newton iterations) of every step ``evolve`` accepts:
    what its observer sees after the initial state."""
    steps = []
    evolve(init, horizon, rmap, g, CLI_STEPPER,
           observer=lambda s, dt, it, *_: steps.append((s, dt, it)),
           **kwargs)
    start, dt, iters = steps[0]
    assert start is init and (dt, iters) == (0.0, 0)
    return steps[1:]


@pytest.mark.parametrize("name, call", [
    ("flux", 1), ("pot", 1), ("flux", 0), ("pot", 0)],
    ids=["flux", "pot", "flux-initial", "pot-initial"])
def test_an_observer_cannot_write_into_the_handed_arrays(name, call):
    # the next step starts from them, from the initial state's (call 0)
    # as from an accepted state's (call 1, the first accepted step); stats
    # are written all the same
    init, rmap, g = release("quarter_circle", 1e-2, 40, 2)
    calls = []

    def observer(state, dt, iters, flux, pot):
        calls.append(state)
        if len(calls) > call:
            {"flux": flux, "pot": pot}[name][0] = 0.0

    stats = {}
    with pytest.raises(ValueError, match="read-only"):
        evolve(init, 0.1, rmap, g, CLI_STEPPER, observer=observer,
               stats=stats)
    assert len(calls) == call + 1
    assert stats["steps"] == call


def test_stops_the_run_reaches_anyway_keep_every_bit():
    init, rmap, g = release("quarter_circle", 1e-2, 80, 2)
    plain = accepted_steps(init, 0.3, rmap, g)
    stops = [s.time for s, _, _ in plain[::3]]
    stopped = accepted_steps(init, 0.3, rmap, g, stops=[0.0, *stops])
    assert len(stopped) == len(plain)
    for (a, dt_a, it_a), (b, dt_b, it_b) in zip(plain, stopped):
        assert (b.time, dt_b, it_b) == (a.time, dt_a, it_a)
        assert b.positions.tobytes() == a.positions.tobytes()


def test_a_stop_between_steps_is_hit_exactly_and_keeps_the_controllers_dt():
    init, rmap, g = release("quarter_circle", 1e-2, 80, 2)
    plain = accepted_steps(init, 0.3, rmap, g)
    # the first step still growing dt: dt proposed for step k + 1 is
    # plain[k + 1]'s, and the run grows it after step k + 1
    k = next(k for k in range(1, len(plain) - 2)
             if plain[k + 1][1] * 1.2 < CLI_STEPPER.dt_max
             and plain[k + 1][2] <= 5)
    proposed = plain[k + 1][1]
    stop = plain[k][0].time + 0.3 * proposed
    stopped = accepted_steps(init, 0.3, rmap, g, stops=[stop])
    assert [s.time for s, _, _ in stopped[:k + 1]] == \
        [s.time for s, _, _ in plain[:k + 1]]
    state, dt, iters = stopped[k + 1]
    assert state.time == stop
    assert dt == stop - plain[k][0].time
    assert iters <= 5
    # one growth rule: the cut step grows the dt proposed before it, not
    # its own shorter dt
    assert stopped[k + 2][1] == min(1.2 * proposed, CLI_STEPPER.dt_max)
    assert stopped[-1][0].time == 0.3


def test_stops_outside_the_run_are_refused():
    init, rmap, g = release("vertical_down", 1e-2, 20, 2)
    for stops in ([-0.1], [0.3]):
        with pytest.raises(ValueError, match="stops"):
            evolve(init, 0.2, rmap, g, CLI_STEPPER, stops=stops)


@pytest.mark.parametrize("horizon, stops, named", [
    (0.1, [1e-13, 0.05, 0.0500000000001], (0.0, 1e-13)),
    (0.1, [0.05, 0.0500000000001], (0.05, 0.0500000000001)),
    (0.1, [0.0999999999999], (0.0999999999999, 0.1)),
    (1000.0, [500.0, 500.0 + 5e-10], (500.0, 500.0 + 5e-10)),
], ids=["start", "stops", "horizon", "scaled"])
def test_times_within_the_time_tolerance_of_each_other_are_refused(
        horizon, stops, named):
    # evolve counts a stop within TIME_TOL*max(1, |horizon|) after the
    # current time as reached, so no state would carry the later of two
    # such times; the start and the horizon count.  Refused before the run
    init, rmap, g = release("quarter_circle", 1e-2, 20, 2)
    earlier, later = named
    calls, stats = [], {}
    with pytest.raises(ValueError,
                       match=re.escape(f"{earlier!r} and {later!r}")):
        evolve(init, horizon, rmap, g, CLI_STEPPER, stops=stops,
               observer=lambda *a: calls.append(a), stats=stats)
    assert calls == [] and stats == {}
    # branching_pair passes its stops on to evolve
    with pytest.raises(ValueError,
                       match=re.escape(f"{earlier!r} and {later!r}")):
        branching_pair(upright_release(init.grid, g), horizon, rmap, g,
                       CLI_STEPPER, stops=stops)


def test_a_stop_at_the_start_or_the_horizon_stays_legal():
    init, rmap, g = release("quarter_circle", 1e-2, 20, 2)
    steps = accepted_steps(init, 0.1, rmap, g, stops=[0.0, 0.05, 0.1])
    assert 0.05 in [s.time for s, _, _ in steps]
    assert steps[-1][0].time == 0.1


@pytest.mark.parametrize("horizon, stops", [
    (np.nan, ()), (np.inf, ()), (0.1, [np.nan]), (0.1, [0.05, -np.inf]),
    (np.inf, [np.inf]),
], ids=["nan-horizon", "inf-horizon", "nan-stop", "inf-stop", "inf-both"])
def test_non_finite_times_are_refused(horizon, stops):
    init, rmap, g = release("quarter_circle", 1e-2, 20, 2)
    calls, stats = [], {}
    with pytest.raises(ValueError, match="times must be finite"):
        evolve(init, horizon, rmap, g, CLI_STEPPER, stops=stops,
               observer=lambda *a: calls.append(a), stats=stats)
    assert calls == [] and stats == {}


def test_a_state_time_must_be_finite():
    grid = Grid(8)
    positions = np.zeros((9, 2))
    for time in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="time must be finite"):
            ArcState(grid=grid, positions=positions, time=time)
    state = ArcState(grid=grid, positions=positions, time=-2.5)
    with pytest.raises(ValueError, match="time must be finite"):
        replace(state, time=np.nan)


def test_each_step_starts_from_what_the_last_one_finished_with(monkeypatch):
    # the tuple a step hands on (flux, radial form, potential, tangents,
    # energy) is bitwise a fresh evaluation of the state it accepts, also
    # for steps cut to end on a stop; every attempt, the one after a
    # rejection included, starts from its start state's own tuple
    init, rmap, g = release("quarter_circle", 1e-2, 80, 2)
    handed = []  # (state, tuple) at each attempt's start and each end
    step_core = flow._step_core

    def recording_step_core(prev, dt, rmap, g, calc):
        handed.append((prev, calc))
        if len(handed) == 7:
            raise StepRejected("rejected once, to retry from its tuple")
        out = step_core(prev, dt, rmap, g, calc)
        handed.append((out[0], out[3]))
        return out

    monkeypatch.setattr(flow, "_step_core", recording_step_core)
    stops = [0.05, 0.1234567, 0.2]
    steps = accepted_steps(init, 0.3, rmap, g, stops=stops)
    assert set(stops) <= {s.time for s, _, _ in steps}
    assert len(handed) == 2 * len(steps) + 1
    assert handed[0][0] is init
    for state, (flux, radial, pot, tangents, energy) in handed:
        assert tangents.tobytes() == state.tangents.tobytes()
        assert np.float64(energy).tobytes() == \
            np.float64(discrete_energy(state, rmap, g)).tobytes()
        fresh_flux, fresh_radial, fresh_pot = rmap.local_calculus(tangents)
        assert flux.tobytes() == fresh_flux.tobytes()
        assert pot.tobytes() == fresh_pot.tobytes()
        for got, want in zip(radial, fresh_radial):
            assert got.tobytes() == want.tobytes()


def _assert_checked_and_own(state, calc):
    # bitwise the state the checked constructor builds from the same
    # positions and time, read-only, and sharing no memory with the tuple
    # the step hands on
    checked = ArcState(state.grid, state.positions.copy(), state.time)
    assert state.positions.tobytes() == checked.positions.tobytes()
    assert state.positions.dtype == checked.positions.dtype
    assert state.positions.shape == checked.positions.shape
    assert state.time == checked.time
    assert not state.positions.flags.writeable
    flux, radial, pot, tangents, _ = calc
    for array in (flux, *radial, pot, tangents):
        assert not np.shares_memory(state.positions, array)


def test_each_accepted_state_is_checked_read_only_and_its_own(monkeypatch):
    init, rmap, g = release("quarter_circle", 1e-2, 80, 2)
    # a plain step
    new, iters, _, calc = flow._step_core(init, 1e-3, rmap, g,
                                          flow._start(init, rmap, g))
    assert iters > 0
    _assert_checked_and_own(new, calc)
    assert not np.shares_memory(new.positions, init.positions)
    # a run with steps cut to a stop and one attempt rejected: every state
    # a step returns, and every state the observer sees
    returned = []
    step_core = flow._step_core
    attempts = []

    def recording_step_core(prev, dt, rmap, g, calc):
        attempts.append(dt)
        if len(attempts) == 4:
            raise StepRejected("rejected once, to retry")
        out = step_core(prev, dt, rmap, g, calc)
        returned.append((prev, out[0], out[3]))
        return out

    monkeypatch.setattr(flow, "_step_core", recording_step_core)
    stops = [0.0123456789, 0.05]
    observed = []
    evolve(init, 0.1, rmap, g, CLI_STEPPER, stops=stops,
           observer=lambda s, dt, it, flux, pot: observed.append((s, flux)))
    assert attempts[4] == 0.5 * attempts[3]  # the retry after the rejection
    assert len(observed) == len(returned) + 1
    ends = {*stops, 0.1}  # the horizon is a stop too
    cut = 0
    for (prev, state, calc), (seen, flux) in zip(returned, observed[1:]):
        _assert_checked_and_own(state, calc)
        assert not np.shares_memory(state.positions, prev.positions)
        assert seen.positions.tobytes() == state.positions.tobytes()
        if seen.time in ends and seen is not state:
            # a step cut to a stop carries the stop's time exactly
            cut += 1
            _assert_checked_and_own(seen, calc)
        else:
            assert seen is state
        assert flux is calc[0]
    assert cut == len(ends)


SRC = Path(flow.__file__).resolve().parents[1]


def _python(code, pythonpath):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, pythonpath)))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_the_cli_starts_without_scipy_linalg_and_shares_its_routines():
    # whipflow loads scipy's LAPACK wrapper alone; a later scipy.linalg
    # import reuses it, so both hold the very same routine objects
    done = _python("""
import sys
import whipflow.cli
assert "scipy.linalg" not in sys.modules, sorted(sys.modules)
import numpy as np
from scipy.linalg import get_lapack_funcs
from whipflow import flow, tension
pbsv, ptsv = get_lapack_funcs(("pbsv", "ptsv"), (np.empty(0),))
assert pbsv is flow.pbsv and ptsv is tension.ptsv
""", [SRC])
    assert done.returncode == 0, done.stderr
    # and in the other order whipflow takes the wrapper scipy.linalg loaded
    done = _python("""
import sys
import numpy as np
import scipy.linalg
from whipflow import flow, tension
assert sys.modules["scipy.linalg._flapack"] is scipy.linalg._flapack
pbsv, ptsv = scipy.linalg.get_lapack_funcs(("pbsv", "ptsv"), (np.empty(0),))
assert pbsv is flow.pbsv and ptsv is tension.ptsv
""", [SRC])
    assert done.returncode == 0, done.stderr


def test_without_scipys_lapack_wrapper_import_fails_naming_it(tmp_path):
    # a scipy package without linalg/_flapack: no second path is tried
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    done = _python("import whipflow", [tmp_path, SRC])
    assert done.returncode == 1
    assert done.stderr.rstrip().splitlines()[-1].startswith("ImportError: ")
    assert "scipy.linalg._flapack" in done.stderr
