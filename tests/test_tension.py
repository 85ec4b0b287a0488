import numpy as np
import pytest

from whipflow import (ArcState, GeodesicTensionProblem, GravitySpec, Grid,
                      RegularizedMap, ScenarioSpec, StepperConfig,
                      TensionProfile, build, counterexample_tension, evolve,
                      mollify, solve_tension, tension_for_state)
from whipflow.errors import (NumericDomainError, ShapeError, TensionSolveError,
                             UnderResolvedError)
from whipflow.regmap import EPS_MAX, EPS_MIN
from whipflow.tension import end_cos_alpha, flow_tensions


def constant_problem(grid, c, f, nu):
    return GeodesicTensionProblem(
        grid=grid,
        curvature_sq=np.full(grid.n_nodes, c),
        speed_sq=np.full(grid.n_nodes, f),
        neumann_value=nu,
    )


def closed_form_end_value(a):
    # sigma'' - a^2 sigma + 1 = 0, sigma(0) = 0, sigma'(1) = 0
    return (1.0 - 1.0 / np.cosh(a)) / a ** 2


def test_profile_requires_pinned_origin():
    grid = Grid(4)
    with pytest.raises(ValueError):
        TensionProfile(grid=grid, values=np.array([0.1, 0, 0, 0, 0.0]))
    with pytest.raises(ShapeError):
        TensionProfile(grid=grid, values=np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("node", [0, 1, 2])
def test_profile_refuses_non_finite_values(bad, node):
    values = [0.0, 0.5, 1.0]
    values[node] = bad
    with pytest.raises(NumericDomainError, match="non-finite"):
        TensionProfile(grid=Grid(2), values=values)


def test_affine_solutions_exact():
    grid = Grid(113)
    up = solve_tension(constant_problem(grid, 0.0, 0.0, 1.0))
    np.testing.assert_allclose(up.values, grid.nodes, rtol=0, atol=1e-12)
    down = solve_tension(constant_problem(grid, 0.0, 0.0, -1.0))
    np.testing.assert_allclose(down.values, -grid.nodes, rtol=0, atol=1e-12)


def test_constant_coefficient_closed_form():
    a = 10.0
    grid = Grid(2000)
    profile = solve_tension(constant_problem(grid, a * a, 1.0, 0.0))
    exact = closed_form_end_value(a)
    assert abs(profile.at_end - exact) / exact <= 1e-6


def test_second_order_convergence_against_closed_form():
    a = 10.0
    exact = closed_form_end_value(a)
    errors = []
    for n in (250, 500, 1000):
        profile = solve_tension(constant_problem(Grid(n), a * a, 1.0, 0.0))
        errors.append(abs(profile.at_end - exact))
    for coarse, fine in zip(errors, errors[1:]):
        order = np.log2(coarse / fine)
        assert 1.8 <= order <= 2.2


def test_discrete_system_residual_is_tiny():
    rng = np.random.default_rng(3)
    grid = Grid(300)
    c = rng.uniform(0.0, 50.0, size=grid.n_nodes)
    f = rng.uniform(0.0, 2.0, size=grid.n_nodes)
    nu = 0.4
    sigma = solve_tension(GeodesicTensionProblem(
        grid=grid, curvature_sq=c, speed_sq=f, neumann_value=nu)).values
    h = grid.h
    interior = (sigma[:-2] - 2.0 * sigma[1:-1] + sigma[2:]) / h ** 2 \
        - c[1:-1] * sigma[1:-1] + f[1:-1]
    end_row = 2.0 * (sigma[-2] - sigma[-1]) / h ** 2 + 2.0 * nu / h \
        - c[-1] * sigma[-1] + f[-1]
    scale = np.abs(sigma).max() / h ** 2 + np.abs(f).max() + 1.0
    assert np.abs(interior).max() <= 1e-12 * scale
    assert abs(end_row) <= 1e-12 * scale
    assert sigma[0] == 0.0


@pytest.mark.parametrize("n_cells", [1, 2, 3, 200, 4000])
def test_symmetrized_solve_matches_dense_documented_rows(n_cells):
    # the documented rows as they stand, unsymmetrized: row 0 pins
    # sigma(0), interior rows are central differences, the last row is
    # the ghost-eliminated Neumann row.  Row 0 is scaled like its
    # neighbours; as a unit row, partial pivoting swaps it with row 1 and
    # the dense reference itself loses 1e-9 at n = 4000.
    rng = np.random.default_rng(n_cells)
    grid = Grid(n_cells)
    n, h = n_cells, grid.h
    c = rng.uniform(0.0, 50.0, size=n + 1)
    f = rng.uniform(0.0, 2.0, size=n + 1)
    nu = float(rng.normal())
    dense = np.zeros((n + 1, n + 1))
    rhs = np.zeros(n + 1)
    dense[0, 0] = 2.0 / h ** 2
    for i in range(1, n):
        dense[i, i - 1:i + 2] = [1.0 / h ** 2, -2.0 / h ** 2 - c[i],
                                 1.0 / h ** 2]
        rhs[i] = -f[i]
    dense[n, n - 1] = 2.0 / h ** 2
    dense[n, n] = -2.0 / h ** 2 - c[n]
    rhs[n] = -f[n] - 2.0 * nu / h
    expected = np.linalg.solve(dense, rhs)
    got = solve_tension(GeodesicTensionProblem(
        grid=grid, curvature_sq=c, speed_sq=f, neumann_value=nu)).values
    assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()


def test_indefinite_tension_system_raises():
    # the problem validator forbids c < 0, so the field is overwritten to
    # reach the solver's own guard: c = -4/h^2 makes the system indefinite
    grid = Grid(8)
    problem = constant_problem(grid, 0.0, 0.0, 1.0)
    object.__setattr__(problem, "curvature_sq",
                       np.full(grid.n_nodes, -4.0 / grid.h ** 2))
    with pytest.raises(TensionSolveError, match="ptsv info 1"):
        solve_tension(problem)


def test_tension_for_vertical_states(gravity2):
    grid = Grid(200)
    down = build(ScenarioSpec(kind="vertical_down"), grid, gravity2)
    np.testing.assert_allclose(tension_for_state(down, gravity2).values,
                               grid.nodes, atol=1e-10)
    up = build(ScenarioSpec(kind="vertical_up"), grid, gravity2)
    np.testing.assert_allclose(tension_for_state(up, gravity2).values,
                               -grid.nodes, atol=1e-10)


def random_states(rng, grid, dim, count):
    """Pinned curves with random tangents of norm at most 1."""
    states = []
    for k in range(count):
        tangents = rng.normal(size=(grid.n_cells, dim))
        tangents /= np.linalg.norm(tangents, axis=1).max()
        positions = np.zeros((grid.n_nodes, dim))
        positions[:-1] = -grid.h * np.cumsum(tangents[::-1], axis=0)[::-1]
        states.append(ArcState(grid=grid, positions=positions, time=k))
    return states


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("gravity", ["down", "random"])
def test_a_blocks_tensions_are_each_curves_own_bits(dim, gravity):
    # the block call and the one-curve call are one solve; each row of the
    # block must be what the curve gets alone, to the last bit
    rng = np.random.default_rng(dim)
    if gravity == "down":
        g = GravitySpec.down(dim)
    else:
        direction = rng.normal(size=dim)
        g = GravitySpec(direction / np.linalg.norm(direction))
    grid = Grid(60)
    states = random_states(rng, grid, dim, 7)
    states.append(build(ScenarioSpec(kind="helix" if dim == 3
                                     else "quarter_circle"), grid, g))
    sigma, cos_alpha = flow_tensions(
        np.stack([state.positions for state in states]), grid.h, g.direction)
    assert sigma.shape == (len(states), grid.n_nodes)
    for k, state in enumerate(states):
        alone = tension_for_state(state, g).values
        assert sigma[k].tobytes() == alone.tobytes()
        assert np.float64(cos_alpha[k]).tobytes() == \
            np.float64(end_cos_alpha(state, g)).tobytes()


def right_angle_hook(grid, g):
    """Quarter-circle hook rotated so the discrete end tangent is exactly
    orthogonal to gravity (the raw builder leaves an O(h) angle because the
    chord at the pin lags the continuum tangent)."""
    state = build(ScenarioSpec(kind="quarter_circle"), grid, g)
    u_end = state.tangents[-1]
    perp = np.array([-g.direction[1], g.direction[0]])
    theta = np.arctan2(float(u_end @ g.direction), float(u_end @ perp))
    delta = (0.0 if abs(theta) < np.pi / 2 else np.pi) - theta
    rot = np.cos(delta) * (np.outer(perp, perp)
                           + np.outer(g.direction, g.direction)) \
        + np.sin(delta) * (np.outer(g.direction, perp)
                           - np.outer(perp, g.direction))
    return ArcState(grid=grid, positions=state.positions @ rot.T)


def test_right_angle_hook_has_zero_tension(gravity2):
    grid = Grid(400)
    hook = right_angle_hook(grid, gravity2)
    cos_alpha = -float(np.dot(gravity2.direction, hook.tangents[-1]))
    assert abs(cos_alpha) <= 1e-13
    sigma = tension_for_state(hook, gravity2)
    assert np.abs(sigma.values).max() <= 1e-8


def test_counterexample_values_and_bound():
    value, bound = counterexample_tension(0.1, np.pi / 2)
    assert bound == pytest.approx(0.01, rel=1e-12)
    assert value <= bound
    assert value == pytest.approx(0.01 * (1.0 - 1.0 / np.cosh(10.0)), rel=1e-6)

    value2, bound2 = counterexample_tension(0.05, np.pi / 2)
    assert value2 <= bound2
    assert value2 == pytest.approx(0.0025 * (1.0 - 1.0 / np.cosh(20.0)), rel=1e-6)


def test_counterexample_family_monotone():
    values = []
    for eps in (0.1, 0.05, 0.025):
        value, bound = counterexample_tension(eps, np.pi / 2)
        assert value <= bound
        values.append(value)
    assert values[0] > values[1] > values[2]


def test_counterexample_ratio_tends_to_one():
    ratios = []
    for eps in (0.1, 0.05, 0.025):
        value, bound = counterexample_tension(eps, np.pi / 2)
        ratios.append(value / bound)
    assert ratios[0] < ratios[1] < ratios[2] <= 1.0


def test_counterexample_refuses_unresolved_stiffness():
    with pytest.raises(UnderResolvedError):
        counterexample_tension(1e-6, np.pi / 2, n_cells=10)
    with pytest.raises(ValueError):
        counterexample_tension(0.1, 0.0)
    with pytest.raises(ValueError):
        counterexample_tension(-0.1, np.pi / 2)


@pytest.mark.parametrize("eps", [1e155, 1e300])
def test_counterexample_refuses_an_eps_whose_square_overflows(eps):
    with pytest.raises(ValueError, match="eps"):
        counterexample_tension(eps, np.pi / 2)


@pytest.mark.parametrize("eps", [5e-15, 1e-160, 4.64e4])
def test_counterexample_refuses_an_eps_outside_the_domain(eps):
    with pytest.raises(ValueError, match="eps = "):
        counterexample_tension(eps, np.pi / 2)


@pytest.mark.parametrize("alpha0", [1e-300, 1e-160, 1e-150])
def test_counterexample_refuses_an_alpha0_whose_bound_overflows(alpha0):
    # eps^2/sin(alpha0)^2 overflows at EPS_MAX, so some eps in the domain
    # would give an infinite bound
    with pytest.raises(ValueError, match="alpha0 = "):
        counterexample_tension(0.1, alpha0, n_cells=20)


def test_counterexample_bound_is_finite_near_the_alpha0_edge():
    for eps in (EPS_MIN, EPS_MAX):
        value, bound = counterexample_tension(eps, 1e-149, n_cells=20)
        assert np.isfinite(value) and np.isfinite(bound) and bound > 0.0


def test_maximum_principle_positive_neumann():
    rng = np.random.default_rng(4)
    grid = Grid(200)
    c = rng.uniform(0.0, 20.0, size=grid.n_nodes)
    sigma = solve_tension(GeodesicTensionProblem(
        grid=grid, curvature_sq=c, speed_sq=np.zeros(grid.n_nodes),
        neumann_value=0.8)).values
    assert sigma.min() >= -1e-12
    assert np.diff(sigma).min() >= -1e-12
    assert np.diff(sigma, 2).min() >= -1e-10


def test_maximum_principle_negative_neumann():
    rng = np.random.default_rng(5)
    grid = Grid(200)
    c = rng.uniform(0.0, 20.0, size=grid.n_nodes)
    sigma = solve_tension(GeodesicTensionProblem(
        grid=grid, curvature_sq=c, speed_sq=np.zeros(grid.n_nodes),
        neumann_value=-0.8)).values
    assert sigma.max() <= 1e-12
    assert np.diff(sigma).max() <= 1e-12
    assert np.diff(sigma, 2).max() <= 1e-10


def test_zero_neumann_zero_solution():
    grid = Grid(150)
    sigma = solve_tension(constant_problem(grid, 7.0, 0.0, 0.0)).values
    assert np.abs(sigma).max() <= 1e-12


def test_slope_and_value_bounds():
    rng = np.random.default_rng(6)
    grid = Grid(180)
    for nu in (0.3, -0.9, 1.0):
        c = rng.uniform(0.0, 40.0, size=grid.n_nodes)
        sigma = solve_tension(GeodesicTensionProblem(
            grid=grid, curvature_sq=c, speed_sq=np.zeros(grid.n_nodes),
            neumann_value=nu)).values
        assert np.all(np.abs(sigma) <= grid.nodes * abs(nu) + 1e-10)
        assert np.abs(np.diff(sigma) / grid.h).max() <= abs(nu) + 1e-10


def test_tension_bounded_by_arclength_along_run(gravity2):
    # |sigma(s)| <= s at every accepted state of a released straight whip
    grid = Grid(100)
    spec = ScenarioSpec(kind="straight_angle", alpha0=0.9,
                        mollify_radius=0.02, taper_width=0.04)
    init = mollify(build(spec, grid, gravity2), spec)
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-9, dt_max=0.02)
    excess = []

    def observer(state, dt, iters, flux, pot):
        sigma = tension_for_state(state, gravity2).values
        excess.append(float((np.abs(sigma) - grid.nodes).max()))

    evolve(init, 0.5, RegularizedMap(1e-2, dim=2), gravity2, cfg,
           observer=observer)
    # the initial state and T / dt_max accepted steps at least
    assert len(excess) >= 1 + 25
    assert max(excess) <= 1e-8


def test_nonnegative_with_source():
    rng = np.random.default_rng(7)
    grid = Grid(160)
    sigma = solve_tension(GeodesicTensionProblem(
        grid=grid,
        curvature_sq=rng.uniform(0.0, 30.0, size=grid.n_nodes),
        speed_sq=rng.uniform(0.0, 3.0, size=grid.n_nodes),
        neumann_value=0.0)).values
    assert sigma.min() >= -1e-12


def test_problem_validation():
    grid = Grid(10)
    with pytest.raises(ValueError):
        GeodesicTensionProblem(grid=grid, curvature_sq=-np.ones(11),
                               speed_sq=np.zeros(11), neumann_value=0.0)
    with pytest.raises(ShapeError):
        GeodesicTensionProblem(grid=grid, curvature_sq=np.zeros(10),
                               speed_sq=np.zeros(11), neumann_value=0.0)
    for nu in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            GeodesicTensionProblem(grid=grid, curvature_sq=np.zeros(11),
                                   speed_sq=np.zeros(11), neumann_value=nu)
