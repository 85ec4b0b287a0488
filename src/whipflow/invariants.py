"""Self-check battery behind the ``validate`` subcommand.

Each check exercises one structural property the package relies on, at a
size small enough that the whole battery runs in well under a minute.  The
heavyweight quantitative verifications (long runs, sweeps) live in the
test suite; this battery is the quick field check.
"""

from __future__ import annotations

import numpy as np

from .diagnostics import (EQUILIBRIUM_ENERGY, HARDY_RATIO_BOUND,
                          generalized_residual, hardy_check,
                          relative_energy_identity_check, report)
from .flow import ArcState, GravitySpec, StepperConfig, discrete_energy, evolve
from .grid import Grid
from .regmap import RegularizedMap
from .run_io import RunRecord, Snapshot, read_run, records_equal, write_run
from .scenarios import ScenarioSpec, backward_transform, build, mollify
from .tension import (GeodesicTensionProblem, TensionProfile,
                      solve_tension, tension_for_state)


def _rotation(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def check_grid_telescoping():
    rng = np.random.default_rng(0)
    grid = Grid(97)
    values = rng.normal(size=grid.n_nodes)
    total = grid.h * grid.diff_forward(values).sum()
    err = abs(total - (values[-1] - values[0]))
    return err <= 1e-12, f"telescoping error {err:.2e}"


def check_grid_quadrature_order():
    f = lambda s: np.sin(3.0 * s) + s ** 3
    exact = (1.0 - np.cos(3.0)) / 3.0 + 0.25
    errs = []
    for n in (64, 128):
        grid = Grid(n)
        errs.append(abs(grid.quad_trapezoid(f(grid.nodes)) - exact))
    ratio = errs[0] / errs[1]
    return 3.4 <= ratio <= 4.6, f"trapezoid refinement ratio {ratio:.2f}"


def check_map_round_trip():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        eps = 10.0 ** rng.uniform(-4, 0)
        d = int(rng.choice([2, 3]))
        m = RegularizedMap(eps, dim=d)
        tau = rng.normal(size=d) * rng.uniform(0.0, 10.0)
        err = np.linalg.norm(m.forward(m.invert(tau)) - tau)
        worst = max(worst, err / (1.0 + np.linalg.norm(tau)))
    return worst <= 1e-10, f"worst relative round-trip {worst:.2e}"


def check_map_radiality():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        d = int(rng.choice([2, 3]))
        m = RegularizedMap(10.0 ** rng.uniform(-3, 0), dim=d)
        tau = rng.normal(size=d)
        rot = _rotation(rng, d)
        err = np.linalg.norm(m.invert(rot @ tau) - rot @ m.invert(tau))
        worst = max(worst, err)
    return worst <= 1e-12, f"worst rotation defect {worst:.2e}"


def check_map_monotone():
    rng = np.random.default_rng(3)
    m = RegularizedMap(0.05, dim=3)
    for _ in range(200):
        a, b = rng.normal(size=3), rng.normal(size=3)
        if np.allclose(a, b):
            continue
        gap = float(np.dot(m.forward(a) - m.forward(b), a - b))
        if gap <= 0.0:
            return False, f"monotonicity violated: {gap:.2e}"
    return True, "strictly monotone on 200 random pairs"


def check_map_spectral_sandwich():
    rng = np.random.default_rng(4)
    for _ in range(100):
        d = int(rng.choice([2, 3]))
        m = RegularizedMap(10.0 ** rng.uniform(-3, 0), dim=d)
        tau = rng.normal(size=d) * rng.uniform(0, 3)
        lo, hi = m.spectral_bounds(tau)
        ev = np.linalg.eigvalsh(m.inverse_jacobian(tau))
        if ev.min() < lo * (1 - 1e-9) or ev.max() > hi * (1 + 1e-9):
            return False, f"eigenvalues {ev} escape [{lo}, {hi}]"
    return True, "eigenvalues within closed-form bounds on 100 points"


def check_map_positivity():
    rng = np.random.default_rng(5)
    m = RegularizedMap(0.02, dim=2)
    taus = rng.normal(size=(500, 2)) * 2.0
    sig = np.sum(m.invert(taus) * taus, axis=1)
    ok = sig.min() >= 0.0
    return ok, f"min flux-tangent product {sig.min():.2e}"


def check_tension_affine():
    grid = Grid(173)
    problem = GeodesicTensionProblem(
        grid=grid, curvature_sq=np.zeros(grid.n_nodes),
        speed_sq=np.zeros(grid.n_nodes), neumann_value=1.0,
    )
    err = np.abs(solve_tension(problem).values - grid.nodes).max()
    return err <= 1e-12, f"sigma = s reproduced to {err:.2e}"


def check_tension_closed_form():
    a = 10.0
    grid = Grid(2000)
    problem = GeodesicTensionProblem(
        grid=grid, curvature_sq=np.full(grid.n_nodes, a * a),
        speed_sq=np.ones(grid.n_nodes), neumann_value=0.0,
    )
    exact = (1.0 - 1.0 / np.cosh(a)) / a ** 2
    rel = abs(solve_tension(problem).at_end - exact) / exact
    return rel <= 1e-6, f"closed-form end value to {rel:.2e} relative"


def check_tension_max_principle():
    rng = np.random.default_rng(6)
    grid = Grid(150)
    c = rng.uniform(0.0, 30.0, size=grid.n_nodes)
    problem = GeodesicTensionProblem(
        grid=grid, curvature_sq=c, speed_sq=np.zeros(grid.n_nodes),
        neumann_value=0.7,
    )
    sigma = solve_tension(problem).values
    slopes = np.diff(sigma)
    convexity = np.diff(sigma, 2)
    ok = sigma.min() >= -1e-12 and slopes.min() >= -1e-12 \
        and convexity.min() >= -1e-10 \
        and np.abs(sigma).max() <= 0.7 + 1e-10
    return ok, ("nonnegative, nondecreasing, convex profile"
                if ok else "max principle violated")


def check_flow_energy_monotone():
    grid = Grid(100)
    g = GravitySpec.down(2)
    rmap = RegularizedMap(1e-2, dim=2)
    spec = ScenarioSpec(kind="quarter_circle", mollify_radius=0.02,
                        taper_width=0.04)
    init = mollify(build(spec, grid, g), spec)
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-9, dt_max=0.02)
    energies = [discrete_energy(init, rmap, g)]
    sup_u = [1.0]
    evolve(init, 0.5, rmap, g, cfg, observer=lambda s, dt, it: (
        energies.append(discrete_energy(s, rmap, g)),
        sup_u.append(float(np.linalg.norm(s.tangents, axis=1).max())),
    ))
    worst = float(np.diff(energies).max())
    bound_ok = max(sup_u) <= 1.0 + 0.1 + 0.05
    return worst <= 1e-9 and bound_ok, (
        f"max energy increase {worst:.2e}, running sup tangent {max(sup_u):.4f}"
    )


def check_flow_rotation_equivariance():
    rng = np.random.default_rng(7)
    grid = Grid(60)
    rot = _rotation(rng, 2)
    g = GravitySpec.down(2)
    g_rot = GravitySpec(rot @ g.direction)
    rmap = RegularizedMap(1e-2, dim=2)
    spec = ScenarioSpec(kind="quarter_circle", mollify_radius=0.04,
                        taper_width=0.06)
    init = mollify(build(spec, grid, g), spec)
    init_rot = ArcState(grid=grid, positions=init.positions @ rot.T)
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-9, dt_max=0.01)
    final = evolve(init, 0.2, rmap, g, cfg)
    final_rot = evolve(init_rot, 0.2, rmap, g_rot, cfg)
    err = np.abs(final_rot.positions - final.positions @ rot.T).max()
    return err <= 1e-8, f"rotated-run mismatch {err:.2e}"


def check_equilibrium_reports():
    grid = Grid(1000)
    g = GravitySpec.down(2)
    rmap = RegularizedMap(1e-2, dim=2)
    down = build(ScenarioSpec(kind="vertical_down"), grid, g)
    rep = report(down, rmap, g)
    ok = abs(rep.E - EQUILIBRIUM_ENERGY) <= 1e-12 and abs(rep.D) <= 1e-10
    pairs = [
        (ArcState(grid=grid, positions=down.positions, time=t),
         TensionProfile(grid=grid, values=grid.nodes))
        for t in (0.0, 1.0)
    ]
    res = generalized_residual(pairs, g)
    ok = ok and res.pde_residual_L2 <= 1e-10 and res.constraint_product_L2 <= 1e-10
    return ok, (f"E = {rep.E!r}, D = {rep.D:.2e}, "
                f"pde residual {res.pde_residual_L2:.2e}")


def check_hardy_battery():
    rng = np.random.default_rng(8)
    grid = Grid(400)
    worst = 0.0
    for _ in range(100):
        coeffs = rng.normal(size=6) / (1.0 + np.arange(6)) ** 2
        f = np.zeros(grid.n_nodes)
        for k, c in enumerate(coeffs, start=1):
            f += c * np.sin(0.5 * np.pi * k * grid.nodes)
        f *= grid.nodes  # enforce the vanishing endpoint smoothly
        worst = max(worst, hardy_check(f, grid))
    return worst <= HARDY_RATIO_BOUND + 0.1, f"worst Hardy ratio {worst:.3f}"


def check_relative_energy_identity():
    g = GravitySpec.down(2)
    grid = Grid(128)
    state = build(ScenarioSpec(kind="random_lipschitz", seed=11), grid, g)
    _, _, gap = relative_energy_identity_check(state, g)
    return gap <= 10.0 * grid.h ** 2, f"identity gap {gap:.2e}"


def check_tension_bound_along_run():
    grid = Grid(100)
    g = GravitySpec.down(2)
    rmap = RegularizedMap(1e-2, dim=2)
    spec = ScenarioSpec(kind="straight_angle", alpha0=0.9,
                        mollify_radius=0.02, taper_width=0.04)
    init = mollify(build(spec, grid, g), spec)
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-9, dt_max=0.02)
    worst = 0.0
    def obs(state, dt, it):
        nonlocal worst
        sigma = tension_for_state(state, g).values
        worst = max(worst, float(np.abs(sigma).max() - (grid.nodes[-1] + 1e-8)))
        excess = np.abs(sigma) - (grid.nodes + 1e-8)
        worst = max(worst, float(excess.max()))
    evolve(init, 0.5, rmap, g, cfg, observer=obs)
    return worst <= 0.0, f"worst |sigma| - s excess {worst:.2e}"


def check_scenario_admissibility():
    g2, g3 = GravitySpec.down(2), GravitySpec.down(3)
    grid = Grid(500)
    worst = -np.inf
    for kind, g in (("vertical_down", g2), ("vertical_up", g2),
                    ("straight_angle", g2), ("quarter_circle", g2),
                    ("helix", g3), ("random_lipschitz", g2)):
        state = build(ScenarioSpec(kind=kind, seed=5), grid, g)
        if np.any(state.positions[-1] != 0.0):
            return False, f"{kind} is not pinned"
        worst = max(worst, float(np.linalg.norm(state.tangents, axis=1).max()))
    return worst <= 1.0 + 1e-12, f"worst built tangent sup {worst - 1.0:.2e} above 1"


def check_scenario_determinism():
    g = GravitySpec.down(3)
    grid = Grid(200)
    a = build(ScenarioSpec(kind="random_lipschitz", seed=42), grid, g)
    b = build(ScenarioSpec(kind="random_lipschitz", seed=42), grid, g)
    same = np.array_equal(a.positions, b.positions)
    return same, "identical seeds give bitwise-identical states"


def check_backward_involution():
    g = GravitySpec.down(2)
    grid = Grid(50)
    rng = np.random.default_rng(9)
    states, tensions = [], []
    for k, t in enumerate((0.0, 0.5, 1.25)):
        pos = rng.normal(size=(grid.n_nodes, 2))
        pos[-1] = 0.0
        states.append(ArcState(grid=grid, positions=pos, time=t))
        sig = rng.normal(size=grid.n_nodes)
        sig[0] = 0.0
        tensions.append(TensionProfile(grid=grid, values=sig))
    from .flow import Trajectory
    traj = Trajectory(states=tuple(states), gravity=g.flipped(),
                      tensions=tuple(tensions))
    back = backward_transform(traj, g)
    again = backward_transform(back, g.flipped())
    ok = all(
        np.array_equal(a.positions, b.positions) and a.time == b.time
        for a, b in zip(traj.states, again.states)
    ) and all(
        np.array_equal(a.values, b.values)
        for a, b in zip(traj.tensions, again.tensions)
    )
    return ok, "double reversal restores the run bitwise"


def check_run_io_round_trip():
    import tempfile
    rng = np.random.default_rng(10)
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(5):
            grid = Grid(int(rng.integers(4, 12)))
            pos = rng.normal(size=(grid.n_nodes, 2))
            pos[-1] = 0.0
            sig = rng.normal(size=grid.n_nodes)
            sig[0] = 0.0
            snap = Snapshot(
                state=ArcState(grid=grid, positions=pos, time=float(k)),
                tension=TensionProfile(grid=grid, values=sig),
            )
            from .diagnostics import EnergyReport
            values = [float(x) for x in rng.normal(size=11)]
            values[0] = float(k)
            rep = EnergyReport(*values)
            record = RunRecord(
                config_echo={"k": k}, reports=[rep], step_dts=[0.0],
                step_newton_iters=[0], snapshots=[snap],
                solver_stats={"steps": k}, summary={"ok": True},
            )
            write_run(record, f"{tmp}/r{k}")
            if not records_equal(record, read_run(f"{tmp}/r{k}")):
                return False, f"round trip failed for record {k}"
    return True, "5 randomized records round-trip exactly"


CHECKS = [
    ("grid.telescoping", check_grid_telescoping),
    ("grid.quadrature_order", check_grid_quadrature_order),
    ("map.round_trip", check_map_round_trip),
    ("map.radiality", check_map_radiality),
    ("map.monotone", check_map_monotone),
    ("map.spectral_sandwich", check_map_spectral_sandwich),
    ("map.positivity_transfer", check_map_positivity),
    ("tension.affine_exact", check_tension_affine),
    ("tension.closed_form", check_tension_closed_form),
    ("tension.max_principle", check_tension_max_principle),
    ("flow.energy_monotone", check_flow_energy_monotone),
    ("flow.rotation_equivariance", check_flow_rotation_equivariance),
    ("diagnostics.equilibria", check_equilibrium_reports),
    ("diagnostics.hardy", check_hardy_battery),
    ("diagnostics.relative_energy_identity", check_relative_energy_identity),
    ("diagnostics.tension_bound", check_tension_bound_along_run),
    ("scenarios.admissibility", check_scenario_admissibility),
    ("scenarios.determinism", check_scenario_determinism),
    ("scenarios.backward_involution", check_backward_involution),
    ("run_io.round_trip", check_run_io_round_trip),
]


def run_all():
    """Run every check; returns a list of (name, passed, detail)."""
    results = []
    for name, fn in CHECKS:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(passed), detail))
    return results
