import weakref
from fractions import Fraction

import numpy as np
import pytest

from paper_checks import (compatibility, folding_fall,
                          relative_energy_identity, sigma_tails,
                          time_reversed)
from test_scenarios import _residual_bits
from whipflow import (ArcState, GravitySpec, Grid,
                      RegularizedMap, ScenarioSpec, StepperConfig,
                      TensionProfile, build, constitutive_tension,
                      decay_fit, evolve, generalized_residual, hardy_check,
                      mollify, report)
from whipflow import diagnostics
from whipflow.diagnostics import (BLOCK_FLOATS, EQUILIBRIUM_ENERGY,
                                  TIMESERIES_COLUMNS, RealizedResidual,
                                  Reporter, ResidualAccumulator, _line_fit)
from whipflow.errors import ShapeError


@pytest.fixture(scope="module")
def rmap():
    return RegularizedMap(1e-2, dim=2)


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
    assert rep["E"] == pytest.approx(-0.5, abs=1e-14)
    assert rep["E_rel"] == pytest.approx(0.0, abs=1e-14)
    assert rep["D"] == pytest.approx(0.0, abs=1e-10)
    assert rep["cos_alpha"] == pytest.approx(1.0, abs=1e-12)
    assert rep["max_stretch"] <= 1e-12
    assert rep["sigma_at_1"] == pytest.approx(1.0, abs=1e-10)


def test_report_upward_equilibrium(gravity2, rmap):
    grid = Grid(500)
    state = build(ScenarioSpec(kind="vertical_up"), grid, gravity2)
    rep = report(state, rmap, gravity2)
    assert rep["E"] == pytest.approx(0.5, abs=1e-14)
    assert rep["E_rel"] == pytest.approx(1.0, abs=1e-14)
    assert rep["E_rel_back"] == pytest.approx(0.0, abs=1e-14)
    assert rep["D"] == pytest.approx(0.0, abs=1e-10)


def test_report_horizontal_segment(gravity2, rmap):
    grid = Grid(200)
    positions = np.zeros((grid.n_nodes, 2))
    positions[:, 0] = 1.0 - grid.nodes
    rep = report(ArcState(grid=grid, positions=positions), rmap, gravity2)
    assert rep["E"] == pytest.approx(0.0, abs=1e-14)
    assert rep["cos_alpha"] == pytest.approx(0.0, abs=1e-13)
    assert rep["D"] == pytest.approx(1.0, abs=1e-10)


def test_report_energy_forms_agree(gravity2, rmap):
    grid = Grid(100)
    for seed in (1, 2, 3):
        state = build(ScenarioSpec(kind="random_lipschitz", seed=seed),
                      grid, gravity2)
        rep = report(state, rmap, gravity2)
        assert abs(rep["E"] - rep["E_alt"]) <= 10.0 * grid.h
        assert rep["E_rel"] >= -10.0 * grid.h


def block_states(grid, dim):
    """States per block of a Reporter, as the Reporter sizes its block."""
    return len(Reporter(grid, GravitySpec.down(dim))._times)


def step_of(k):
    """The (dt, Newton iterations) a Reporter is given with a run's k-th
    state."""
    return 1e-3 * k, k % 7


def timeseries_rows(reports):
    """The timeseries table of a run's per-state report() rows, the k-th
    row ended by step_of(k)."""
    rows = [[*r.values(), *step_of(k)] for k, r in enumerate(reports)]
    return np.array(rows, dtype=float).reshape(-1, len(TIMESERIES_COLUMNS))


def expected_table(states, rmap, g):
    """The per-state report() rows, with each state's step_of."""
    return timeseries_rows([report(state, rmap, g) for state in states])


def bits(table):
    return np.asarray(table, dtype=float).view(np.uint64)


def calculus(rmap, state):
    """(flux, pot) of a state, as evolve's observer receives them."""
    flux, _, pot = rmap.local_calculus(state.tangents)
    return flux, pot


def reported_in_blocks(states, rmap, g):
    reporter = Reporter(states[0].grid, g)
    for k, state in enumerate(states):
        reporter.add(state, *step_of(k), *calculus(rmap, state))
    reporter.flush()
    return reporter


def helix_release_states():
    """A 3-D release on 1000 cells, five states per block, to t = 0.05."""
    grid = Grid(1000)
    g = GravitySpec.down(3)
    spec = ScenarioSpec(kind="helix", alpha0=1.0)
    init = mollify(build(spec, grid, g))
    rmap = RegularizedMap(1e-2, dim=3)
    states = []
    evolve(init, 0.05, rmap, g, StepperConfig(1e-3, 1e-9, 0.02),
           observer=lambda state, *_: states.append(state))
    return states, rmap, g


def test_block_rows_are_the_per_state_reports_in_2d(pendulum_run):
    run = pendulum_run
    assert len(run.states) > 3 * block_states(run.grid, 2)
    table = reported_in_blocks(run.states, run.rmap, run.gravity).table
    expected = timeseries_rows(run.reports)
    assert table.shape == (len(run.states), len(TIMESERIES_COLUMNS))
    assert np.array_equal(bits(table), bits(expected))


def test_block_rows_are_the_per_state_reports_in_3d():
    states, rmap, g = helix_release_states()
    assert len(states) > 3 * block_states(states[0].grid, 3)
    table = reported_in_blocks(states, rmap, g).table
    assert table.shape == (len(states), len(TIMESERIES_COLUMNS))
    assert np.array_equal(bits(table), bits(expected_table(states, rmap, g)))


def test_block_rows_keep_the_report_of_an_off_axis_gravity(rmap):
    # a stacked end-slope product would round cos(alpha) differently in
    # the last bit; each slope is its own dot product instead
    rng = np.random.default_rng(4)
    grid = Grid(60)
    direction = rng.normal(size=2)
    g = GravitySpec(direction / np.linalg.norm(direction))
    states = []
    for k in range(3 * block_states(grid, 2)):
        tangents = rng.normal(size=(grid.n_cells, 2))
        tangents /= np.linalg.norm(tangents, axis=1).max()
        positions = np.zeros((grid.n_nodes, 2))
        positions[:-1] = -grid.h * np.cumsum(tangents[::-1], axis=0)[::-1]
        states.append(ArcState(grid=grid, positions=positions, time=k))
    table = reported_in_blocks(states, rmap, g).table
    assert np.array_equal(bits(table), bits(expected_table(states, rmap, g)))


def states_taken(consumer):
    """The states a Reporter or a RealizedResidual has taken from its
    block so far."""
    if isinstance(consumer, Reporter):
        return len(consumer.table)
    return consumer.residual._count


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [2, 200, 1000, 2000])
@pytest.mark.parametrize("consumer", [Reporter, RealizedResidual],
                         ids=["Reporter", "RealizedResidual"])
def test_reporter_holds_at_most_one_block_of_positions(consumer, n, dim):
    # either consumer of a run's states holds at most BLOCK_FLOATS floats,
    # or one state (positions, flux, potential, time, dt and Newton
    # iterations) if that is larger, and copies what it is given
    grid = Grid(n)
    g = GravitySpec.down(dim)
    rmap = RegularizedMap(1e-2, dim=dim)
    block = consumer(grid, g)
    per_state = (2 * n + 1) * dim + n + 3
    held = [v.size for v in vars(block).values() if isinstance(v, np.ndarray)]
    assert sum(held) <= max(BLOCK_FLOATS, per_state)
    per_block = len(block._times)
    assert per_block == max(1, BLOCK_FLOATS // per_state)
    # two full blocks of a shrinking quarter circle and one more state
    init = build(ScenarioSpec(kind="quarter_circle"), grid, g)
    states = [ArcState(grid=grid, positions=init.positions * (1.0 - 0.1 * k
                                                              / per_block),
                       time=0.01 * k) for k in range(2 * per_block + 1)]
    for added, state in enumerate(states, start=1):
        copy = ArcState(grid=grid, positions=state.positions,
                        time=state.time)
        ref = weakref.ref(copy.positions)
        block.add(copy, *step_of(added - 1), *calculus(rmap, copy))
        del copy
        # the positions were copied into the block, not kept
        assert ref() is None
        assert 0 <= added - states_taken(block) < per_block
    assert states_taken(block) == len(states) - len(states) % per_block
    block.flush()
    if consumer is Reporter:
        assert np.array_equal(bits(block.table),
                              bits(expected_table(states, rmap, g)))
    else:
        one_by_one = ResidualAccumulator(g)
        for state in states:
            one_by_one.add(state, constitutive_tension(
                state, calculus(rmap, state)[0]))
        assert np.array_equal(_residual_bits(block.residual),
                              _residual_bits(one_by_one))


def test_flush_without_states_reports_nothing(gravity2, rmap):
    reporter = Reporter(Grid(10), gravity2)
    reporter.flush()
    assert reporter.table.shape == (0, len(TIMESERIES_COLUMNS))
    assert reporter.sup_u == -np.inf


def test_reporter_refuses_a_state_of_another_grid(gravity2, rmap):
    reporter = Reporter(Grid(10), gravity2)
    state = build(ScenarioSpec(kind="vertical_down"), Grid(11), gravity2)
    with pytest.raises(ShapeError):
        reporter.add(state, 0.0, 0, *calculus(rmap, state))


@pytest.mark.parametrize("per_block", [1, 3, "run"])
def test_block_size_does_not_change_the_rows(pendulum_run, monkeypatch,
                                             per_block):
    # 100 states: blocks of one state, of three (the last one partial) and
    # one block for the whole run
    run = pendulum_run
    states = run.states[:100]
    size = len(states) if per_block == "run" else per_block
    n = run.grid.n_cells
    # a Reporter's floats per state: positions, flux, potential, time, dt
    # and Newton iterations
    per_state = (n + 1) * 2 + n * 2 + n + 3
    monkeypatch.setattr(diagnostics, "BLOCK_FLOATS", size * per_state)
    reporter = Reporter(run.grid, run.gravity)
    assert reporter._times.shape == (size,)
    for added, state in enumerate(states, start=1):
        reporter.add(state, *step_of(added - 1), *calculus(run.rmap, state))
        assert len(reporter.table) == added - added % size
    reporter.flush()
    expected = timeseries_rows(run.reports[:100])
    assert np.array_equal(bits(reporter.table), bits(expected))
    assert reporter.sup_u == max(run.sup_tangent[:100])


def test_reporter_refuses_a_flux_or_potential_of_another_shape(gravity2,
                                                               rmap):
    # copied into the block, a flux of one vector or a potential of the
    # wrong length would broadcast silently
    grid = Grid(10)
    state = build(ScenarioSpec(kind="quarter_circle"), grid, gravity2)
    flux, pot = calculus(rmap, state)
    reporter = Reporter(grid, gravity2)
    for k, bad in enumerate([(flux[0], pot), (flux[:1], pot),
                             (flux[:, :1], pot), (flux, pot[:-1]),
                             (flux, pot[:1]), (flux, pot[:, None])]):
        with pytest.raises(ShapeError):
            reporter.add(state, 0.5, k + 1, *bad)
    # the refused adds left the block as it was
    reporter.add(state, *step_of(0), flux, pot)
    reporter.flush()
    assert np.array_equal(bits(reporter.table),
                          bits(expected_table([state], rmap, gravity2)))


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
    assert res["pde_residual_L2"] <= 1e-10
    assert res["constraint_product_L2"] <= 1e-10
    assert res["stretch_violation"] <= 1e-10
    assert abs(res["diss_inequality_slack"]) <= 1e-10


def test_generalized_residual_stationary_up(gravity2):
    grid = Grid(200)
    up = build(ScenarioSpec(kind="vertical_up"), grid, gravity2)
    res = generalized_residual(
        stationary_pairs(grid, up.positions, -grid.nodes), gravity2)
    assert res["pde_residual_L2"] <= 1e-10
    assert res["constraint_product_L2"] <= 1e-10
    assert res["stretch_violation"] <= 1e-10
    assert abs(res["diss_inequality_slack"]) <= 1e-10


@pytest.mark.parametrize("direction", ["forward", "reversed"])
def test_folding_fall_residual_falls_at_order_half_in_dt(gravity2, direction):
    # the exact eps = 0 folding fall to T = 1 at n = 400 (h <= dt), and its
    # time reversal under -g: the velocity jumps from -e to 0 across the
    # moving fold, so the PDE residual falls at order 1/2 in dt (measured
    # 3.54e-2 -> 1.77e-2 forward, 3.53e-2 -> 1.76e-2 reversed, as dt goes
    # 0.01 -> 0.0025); the dissipation slack is rounding (>= -1.6e-14) and
    # the constraint product at most 2.3e-5
    grid = Grid(400)
    results = []
    for steps in (100, 400):
        pairs = folding_fall(grid, gravity2,
                             [k / steps for k in range(steps + 1)])
        if direction == "reversed":
            results.append(generalized_residual(time_reversed(pairs),
                                                gravity2.flipped()))
        else:
            results.append(generalized_residual(pairs, gravity2))
    coarse, fine = results
    assert 3.4e-2 <= coarse["pde_residual_L2"] <= 3.7e-2
    assert 1.7e-2 <= fine["pde_residual_L2"] <= 1.85e-2
    order = np.log(coarse["pde_residual_L2"] / fine["pde_residual_L2"]) / np.log(4)
    assert 0.45 <= order <= 0.55, order
    for res in results:
        assert res["diss_inequality_slack"] >= -1e-12
        assert res["constraint_product_L2"] <= 1e-3


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
    lhs, rhs, gap = relative_energy_identity(down, gravity2)
    assert abs(lhs) <= 1e-13 and abs(rhs) <= 1e-13
    up = build(ScenarioSpec(kind="vertical_up"), grid, gravity2)
    lhs, rhs, gap = relative_energy_identity(up, gravity2)
    assert lhs == pytest.approx(1.0, abs=1e-13)
    assert rhs == pytest.approx(1.0, abs=1e-13)
    assert gap <= 1e-13


def test_relative_energy_identity_random_states(gravity2):
    grid = Grid(128)
    for seed in range(5):
        state = build(ScenarioSpec(kind="random_lipschitz", seed=seed),
                      grid, gravity2)
        _, _, gap = relative_energy_identity(state, gravity2)
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


def synthetic_fit(times, e_rel, window, diss=None):
    """decay_fit of the columns t, E_rel and D (1 unless given)."""
    diss = np.ones(len(times)) if diss is None else diss
    return decay_fit(np.asarray(times, dtype=float),
                     np.asarray(e_rel, dtype=float), diss, window)


def test_decay_fit_exact_exponential():
    t = np.linspace(0.0, 3.0, 40)
    fit = synthetic_fit(t, np.exp(-3.0 * t), (0.0, 3.0))
    assert fit["rate"] == pytest.approx(3.0, abs=1e-12)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)


def test_decay_fit_wobbled_exponential():
    t = np.linspace(0.0, 3.0, 200)
    e = np.exp(-3.0 * t) * (1.0 + 0.01 * np.sin(t))
    fit = synthetic_fit(t, e, (0.0, 3.0))
    assert abs(fit["rate"] - 3.0) <= 0.02
    assert fit["r_squared"] >= 0.999


def test_decay_fit_cbar0_ratio():
    t = np.linspace(0.0, 1.0, 20)
    e = np.exp(-t)
    fit = synthetic_fit(t, e, (0.0, 1.0), diss=2.0 * e)
    assert fit["cbar0_check"] == pytest.approx(0.5, abs=1e-12)


def test_decay_fit_reads_only_the_rows_in_its_window():
    # rows outside the window do not enter the fit, whatever they hold
    t = np.linspace(0.0, 2.0, 41)
    e = np.exp(-3.0 * t)
    outside = t > 1.0
    e_bad, d_bad = e.copy(), np.ones(41)
    e_bad[outside], d_bad[outside] = -1.0, 1e-300
    assert synthetic_fit(t, e_bad, (0.0, 1.0), diss=d_bad) == \
        synthetic_fit(t[~outside], e[~outside], (0.0, 1.0))


def test_decay_fit_refusals():
    t = np.linspace(0.0, 1.0, 20)
    with pytest.raises(ValueError, match="not positive on the window"):
        synthetic_fit(t, np.linspace(1.0, -0.1, 20), (0.0, 1.0))
    with pytest.raises(ValueError, match="need at least 10 reports in window, "
                                         "got 5"):
        synthetic_fit(t[:5], np.exp(-t[:5]), (0.0, 1.0))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["e_rel", "diss"])
def test_decay_fit_refuses_a_row_that_is_not_finite(column, value):
    # a NaN relative energy passed the positivity check and gave a NaN
    # rate, r^2 and ratio; a NaN dissipation gave an infinite ratio
    t = np.linspace(0.0, 1.0, 20)
    columns = {"e_rel": np.exp(-t), "diss": np.ones(20)}
    columns[column][7] = value
    with pytest.raises(ValueError, match="not finite on the window"):
        synthetic_fit(t, columns["e_rel"], (0.0, 1.0), diss=columns["diss"])


def test_decay_fit_refuses_a_window_of_one_time():
    # twelve reports at one time fix no slope; a rank-deficient fit gave
    # a rate and r^2 = 0
    t, e = np.full(12, 0.5), np.exp(-np.arange(12.0))
    with pytest.raises(ValueError, match="two distinct times"):
        synthetic_fit(t, e, (0.0, 1.0))
    # one row at another time, outside the window, does not help
    with pytest.raises(ValueError, match="two distinct times"):
        synthetic_fit(np.append(t, 2.0), np.append(e, 0.1), (0.0, 1.0))


def exact_line(x, y):
    """The least-squares (slope, intercept) of float data, in rationals."""
    xs, ys = [Fraction(v) for v in x], [Fraction(v) for v in y]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((a - x_mean) * (b - y_mean) for a, b in zip(xs, ys)) \
        / sum((a - x_mean) ** 2 for a in xs)
    return slope, y_mean - slope * x_mean


def random_windows(count):
    """Seeded decay windows: sorted times, a log-energy line plus noise of
    a random size (up to the size of the line's fall)."""
    rng = np.random.default_rng(7)
    for _ in range(count):
        n = int(rng.integers(10, 300))
        t0 = rng.uniform(0.0, 5.0)
        t = np.sort(rng.uniform(t0, t0 + rng.uniform(0.1, 10.0), n))
        log_e = rng.uniform(-5.0, 5.0) - rng.uniform(0.01, 10.0) * t \
            + rng.normal(scale=rng.uniform(0.0, 0.5), size=n)
        yield t, log_e


def test_line_fit_is_the_exact_least_squares_line():
    # np.polyfit's SVD solve misses the exact slope by up to ~2e-14 here
    for t, log_e in random_windows(200):
        slope, intercept = _line_fit(t, log_e)
        exact_slope, exact_intercept = exact_line(t, log_e)
        assert abs(Fraction(slope) - exact_slope) \
            <= Fraction(1e-15) * abs(exact_slope)
        scale = abs(Fraction(float(log_e.mean()))) \
            + abs(exact_slope * Fraction(float(t.mean())))
        assert abs(Fraction(intercept) - exact_intercept) \
            <= Fraction(1e-15) * scale


def constant_trajectory(grid, positions, sigma_values, times):
    """(state, tension) pairs of a fixed state under varying tensions."""
    return [
        (ArcState(grid=grid, positions=positions, time=t),
         TensionProfile(grid=grid, values=v))
        for t, v in zip(times, sigma_values)
    ]


def test_sigma_decay_stationary_tail_is_zero(gravity2):
    grid = Grid(100)
    down = build(ScenarioSpec(kind="vertical_down"), grid, gravity2)
    times = np.linspace(0.0, 2.0, 21)
    traj = constant_trajectory(grid, down.positions, [grid.nodes] * 21, times)
    entries = sigma_tails(traj, gravity2, [0.0, 0.5, 1.0], c0=1.0 / 16.0)
    for tail, bound in entries:
        assert tail == pytest.approx(0.0, abs=1e-13)
        assert tail <= bound


def test_sigma_decay_switched_tension(gravity2):
    # sigma = 0 on [0, 1), sigma = s afterwards: the tail at 0 integrates
    # the weighted distance of zero tension from the equilibrium profile,
    # which is exactly 1/2 per unit time
    grid = Grid(200)
    down = build(ScenarioSpec(kind="vertical_down"), grid, gravity2)
    times = np.linspace(0.0, 2.0, 41)
    sigmas = [np.zeros(grid.n_nodes) if t < 1.0 else grid.nodes for t in times]
    traj = constant_trajectory(grid, down.positions, sigmas, times)
    [(tail, _)] = sigma_tails(traj, gravity2, [0.0], c0=1.0 / 16.0)
    assert tail == pytest.approx(0.5, abs=1e-12)


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
    traj = constant_trajectory(grid, down.positions, sigmas, times)
    t_grid = [0.0, 0.5, 1.0, 1.5, 2.0]
    tails = [tail for tail, _ in
             sigma_tails(traj, gravity2, t_grid, c0=1.0 / 16.0)]
    assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))


def test_sigma_decay_requires_near_equilibrium(gravity2):
    grid = Grid(50)
    up = build(ScenarioSpec(kind="vertical_up"), grid, gravity2)
    times = np.linspace(0.0, 1.0, 21)
    traj = constant_trajectory(grid, up.positions, [-grid.nodes] * 21, times)
    with pytest.raises(ValueError):
        sigma_tails(traj, gravity2, [0.0], c0=1.0 / 16.0)


def test_compatibility_predicate_equilibrium(gravity2):
    grid = Grid(100)
    down = build(ScenarioSpec(kind="vertical_down"), grid, gravity2)
    holds, lhs, rhs = compatibility(down, gravity2)
    assert not holds
    assert lhs == pytest.approx(0.0, abs=1e-10)
    assert rhs == pytest.approx(0.0, abs=1e-10)


def test_compatibility_predicate_straight_whip(gravity2):
    grid = Grid(100)
    state = build(ScenarioSpec(kind="straight_angle", alpha0=np.pi / 4),
                  grid, gravity2)
    holds, lhs, rhs = compatibility(state, gravity2)
    assert holds
    assert lhs == pytest.approx(0.0, abs=1e-9)
    assert rhs == pytest.approx(1.0 - np.sqrt(2.0) / 2.0, abs=1e-10)


def test_compatibility_predicate_right_angle(gravity2):
    grid = Grid(100)
    state = build(ScenarioSpec(kind="straight_angle", alpha0=np.pi / 2),
                  grid, gravity2)
    holds, lhs, rhs = compatibility(state, gravity2)
    assert holds
    assert rhs == pytest.approx(1.0, abs=1e-10)


def test_constitutive_tension_nonnegative_and_pinned(gravity2, rmap):
    grid = Grid(100)
    for seed in range(3):
        state = build(ScenarioSpec(kind="random_lipschitz", seed=seed),
                      grid, gravity2)
        profile = constitutive_tension(state, rmap.invert(state.tangents))
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
    E = np.array([r["E"] for r in run.reports])
    t = np.array([r["t"] for r in run.reports])
    D = np.array([r["D"] for r in run.reports])
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
    assert min(r["E_rel"] for r in run.reports) >= -10.0 * run.grid.h


def test_time_reversed_run_keeps_residual_scale(gravity2):
    # reversing a run (and negating its tension) changes the measured weak
    # residual only through the asymmetry of the time differences
    g_minus = gravity2.flipped()
    grid = Grid(80)
    rmap = RegularizedMap(1e-2, dim=2)
    spec = ScenarioSpec(kind="straight_angle", alpha0=np.pi / 4)
    init = mollify(build(spec, grid, g_minus))
    states, tensions = [], []
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-10, dt_max=0.02)
    evolve(init, 0.6, rmap, g_minus, cfg, observer=lambda s, dt, it, flux, pot: (
        states.append(s), tensions.append(constitutive_tension(s, flux))))
    forward = list(zip(states, tensions))
    source = generalized_residual(forward, g_minus)
    reversed_res = generalized_residual(time_reversed(forward), gravity2)
    assert reversed_res["pde_residual_L2"] <= 2.0 * source["pde_residual_L2"]
    assert source["pde_residual_L2"] <= 2.0 * reversed_res["pde_residual_L2"]
