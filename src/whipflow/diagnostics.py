"""Scalar functionals and verification residuals.

Everything the test batteries assert lives here: potential and perturbed
energies, the dissipation identity, weak-solution residuals (taken as
running sums, state by state, by a ResidualAccumulator), the weighted
Hardy ratio, exponential-decay fits, tension tail integrals, and the
compatibility predicate that detects initial data admitting no smooth
evolution.

A run's energy report (one EnergyReport, one ``timeseries.csv`` row, per
accepted state) is taken by a Reporter in two parts.  The columns that
read the state's flux, potential and tangents, E_eps, max_stretch and
constraint_L1 (and the state's largest tangent norm), are taken per
step, as each state arrives with the flux and the potential the stepper
handed out, so no row inverts the map.  The columns that read the
positions alone, E, E_alt, E_rel, E_rel_back, cos_alpha, D and
sigma_at_1, are taken per block of states: the positions of at most
BLOCK_FLOATS floats are kept, and each full block (and the last, partial
one) is reported at once, its tensions from one tridiagonal solve.
``report`` is the one-state case, so every column has one implementation
and a block's rows are bitwise those of ``report``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Sequence

import numpy as np

from .errors import ShapeError
from .flow import (ArcState, GravitySpec, Trajectory, _check_compatible,
                   _energy)
from .flow import discrete_energy  # noqa: F401  (perfbench's spans.WRAPS)
from .grid import Grid
from .regmap import RegularizedMap
from .tension import (TensionProfile, end_cos_alpha, flow_tensions,
                      second_differences)
from .tension import tension_for_state  # noqa: F401  (spans.WRAPS)

# Energy of the downward vertical equilibrium, hard-coded as the reference
# point of the relative energy.  The test suite re-derives it by trapezoid
# quadrature (exact on affine data, so the check is tight).
EQUILIBRIUM_ENERGY = -0.5

# The weighted Hardy ratio  int s^{-1}|f|^2 / int |f'|^2  over fields
# vanishing at s = 0 is at most 4 (chain |f(s)| <= s^{1/2} ||f'||_{L^2(0,s)}
# through the classical Hardy inequality).  Its reciprocal is the coercivity
# constant of the squared-velocity lower bound, and the relative-energy
# comparison spends another factor 4, which fixes the reference decay rate.
HARDY_RATIO_BOUND = 4.0
HARDY_CONSTANT = 1.0 / HARDY_RATIO_BOUND
REFERENCE_DECAY_RATE = HARDY_CONSTANT / 4.0  # = 1/16


@dataclass(frozen=True)
class EnergyReport:
    """All scalar functionals of one state."""

    t: float
    E: float
    E_alt: float
    E_rel: float
    E_rel_back: float
    E_eps: float
    D: float
    cos_alpha: float
    max_stretch: float
    constraint_L1: float
    sigma_at_1: float

    # the field names in declaration order: the timeseries.csv columns
    FIELDS: ClassVar[tuple[str, ...]]


EnergyReport.FIELDS = tuple(f.name for f in fields(EnergyReport))


@dataclass(frozen=True)
class DecayFit:
    """Exponential fit of the relative energy over a time window."""

    window: tuple[float, float]
    rate: float
    r_squared: float
    cbar0_check: float


# Positions a Reporter keeps at most, in floats: the size of its block of
# states.  That is 40 states at n = 200 in 2-D and 5 at n = 1500.
BLOCK_FLOATS = 16384


def _potential_energies(eta, h, g_vec):
    """Trapezoid form of int (-g) . eta for node positions ``eta`` of shape
    (..., N+1, d)."""
    heights = eta @ (-g_vec)
    return h * (heights.sum(axis=-1) - 0.5 * (heights[..., 0] + heights[..., -1]))


def potential_energy(state: ArcState, g: GravitySpec) -> float:
    """Trapezoid form of the potential energy, int (-g) . eta."""
    return float(_potential_energies(state.positions, state.grid.h,
                                     g.direction))


class Reporter:
    """The EnergyReports of a run's states, in the order they are added.

    ``add(state, flux, pot)`` takes a state's per-step columns from its
    flux invert(state.tangents) and potential density, as ``evolve``'s
    observer receives them, and copies its positions into the block; a
    full block is reported at once.  Call ``flush`` after the last state
    (also when the run failed) to report the partial block.  ``reports``
    holds the rows reported so far and ``sup_u`` each added state's
    largest tangent norm.  The boundary tension comes from the two-point
    solve, so D reproduces the dissipation identity of the exact flow
    rather than the regularized surrogate (which is reported separately
    through constraint_L1).
    """

    def __init__(self, grid: Grid, g: GravitySpec):
        self.reports: list[EnergyReport] = []
        self.sup_u: list[float] = []
        self._grid, self._g = grid, g
        shape = (grid.n_nodes, g.dim)
        self._block = np.empty((max(1, BLOCK_FLOATS // (shape[0] * shape[1])),
                                *shape))
        # (t, E_eps, max_stretch, constraint_L1) of each state in the block
        self._pending: list[tuple[float, float, float, float]] = []

    def add(self, state: ArcState, flux: np.ndarray, pot: np.ndarray) -> None:
        if state.positions.shape != self._block.shape[1:]:
            raise ShapeError(
                f"state of shape {state.positions.shape} in a report of "
                f"{self._block.shape[1:]} positions")
        grid = self._grid
        speeds = np.linalg.norm(state.tangents, axis=1)
        flux_norm = np.linalg.norm(flux, axis=1)
        self._block[len(self._pending)] = state.positions
        self._pending.append((
            state.time,
            float(_energy(state.positions, pot, grid.h, self._g.direction)),
            float(np.abs(speeds - 1.0).max()),
            float(grid.quad_midpoint(flux_norm * np.abs(speeds ** 2 - 1.0))),
        ))
        self.sup_u.append(float(speeds.max()))
        if len(self._pending) == len(self._block):
            self.flush()

    def flush(self) -> None:
        """Report the states added since the last report."""
        pending, self._pending = self._pending, []
        if not pending:
            return
        h = self._grid.h
        g_vec = self._g.direction
        eta = self._block[:len(pending)]
        E = _potential_energies(eta, h, g_vec)
        u = (eta[:, 1:] - eta[:, :-1]) / h
        E_alt = h * (self._grid.midpoints * (u @ g_vec)).sum(axis=-1)
        sigma, cos_alpha = flow_tensions(eta, h, g_vec)
        sigma_at_1 = sigma[:, -1]
        columns = zip(pending, E.tolist(), E_alt.tolist(),
                      (E - EQUILIBRIUM_ENERGY).tolist(),
                      (-EQUILIBRIUM_ENERGY - E).tolist(),
                      (1.0 - sigma_at_1 * cos_alpha).tolist(),
                      cos_alpha.tolist(), sigma_at_1.tolist())
        self.reports.extend(
            EnergyReport(t=t, E=e, E_alt=e_alt, E_rel=e_rel,
                         E_rel_back=e_back, E_eps=e_eps, D=d, cos_alpha=cos,
                         max_stretch=stretch, constraint_L1=l1,
                         sigma_at_1=sigma)
            for (t, e_eps, stretch, l1), e, e_alt, e_rel, e_back, d, cos, sigma
            in columns)


def report(state: ArcState, rmap: RegularizedMap, g: GravitySpec) -> EnergyReport:
    """Evaluate every scalar functional of a state: a Reporter's row for
    it."""
    _check_compatible(state, rmap, g)
    flux, _, pot = rmap.local_calculus(state.tangents)
    reporter = Reporter(state.grid, g)
    reporter.add(state, flux, pot)
    reporter.flush()
    return reporter.reports[0]


def constitutive_tension(state: ArcState, flux: np.ndarray) -> TensionProfile:
    """The multiplier the regularized flow realizes: flux . u, with u the
    state's tangents and ``flux`` = invert(u) (as ``evolve``'s observer
    receives it), interpolated from the midpoints to the nodes.

    It is nonnegative by the radial structure of the map (the flux is
    parallel to the tangent), vanishes where the tangent does, and is the
    natural pairing when a computed run is tested against the
    weak-solution conditions.  The node at s = 0 is zero by the free-end
    condition; the node at s = 1 is linearly extrapolated.
    """
    mid = np.sum(flux * state.tangents, axis=1)
    values = np.empty(state.grid.n_nodes)
    values[0] = 0.0
    values[1:-1] = 0.5 * (mid[:-1] + mid[1:])
    # linear extrapolation, clamped: the multiplier cannot be negative,
    # but extrapolating a profile that dips toward the pin could be
    values[-1] = max(1.5 * mid[-1] - 0.5 * mid[-2], 0.0)
    return TensionProfile(grid=state.grid, values=values)


@dataclass(frozen=True)
class GeneralizedResidual:
    """Discrete residuals of the weak-solution conditions over a run."""

    pde_residual_L2: float
    constraint_product_L2: float
    stretch_violation: float
    diss_inequality_slack: float


def _tension_flux_divergence(grid: Grid, u: np.ndarray,
                             tension: TensionProfile) -> np.ndarray:
    """Node-centered divergence of sigma * d_s eta on nodes 0..n-1, for the
    tangents ``u`` of a state on ``grid``.

    The flux is reflected oddly below s = 0 (consistent with sigma(0) = 0),
    which makes the stationary profiles exact: their residual vanishes at
    the free end as well.
    """
    flux = tension.at_midpoints[:, None] * u
    div = np.empty((grid.n_cells, u.shape[1]))
    div[0] = 2.0 * flux[0] / grid.h
    div[1:] = (flux[1:] - flux[:-1]) / grid.h
    return div


class ResidualAccumulator:
    """The discrete residuals of the weak-solution conditions, taken one
    (state, tension) pair at a time, in increasing time; ``result()`` is
    the GeneralizedResidual of the pairs added so far.

    Time derivatives are backward differences between consecutive
    snapshots (matching the implicit stepper); spatial terms are evaluated
    at the newer level.  The result holds the L2(space-time) norms of the
    PDE residual and of the tension-times-stretch product, the largest
    positive stretch excess, and the worst slack of the dissipation
    inequality int g . d_t eta - int |d_t eta|^2 (nonnegative for a true
    weak solution).  Each term reads the newest pair and the previous
    state alone, so the accumulator keeps only that state and running
    sums.  ``sigma_min`` and ``sigma_max`` are the running extremes of the
    tensions added.
    """

    def __init__(self, g: GravitySpec):
        self._g_vec = g.direction
        self._prev = None
        self._count = 0
        self._pde_sq = 0.0
        self._constraint_sq = 0.0
        self._stretch = 0.0
        self._slack = np.inf
        self.sigma_min = np.inf
        self.sigma_max = -np.inf

    def add(self, state: ArcState, tension: TensionProfile) -> None:
        prev = self._prev
        grid = state.grid
        n = grid.n_cells if prev is None else prev.grid.n_cells
        if grid.n_cells != n or tension.grid.n_cells != n:
            raise ShapeError("all snapshots must share one grid")
        u = state.tangents
        speeds = np.linalg.norm(u, axis=1)
        self._stretch = max(self._stretch, float((speeds - 1.0).max()))
        self.sigma_min = min(self.sigma_min, float(tension.values.min()))
        self.sigma_max = max(self.sigma_max, float(tension.values.max()))
        self._prev = state
        self._count += 1
        if prev is None:
            return
        h = grid.h
        dt = state.time - prev.time
        if not (dt > 0.0):
            raise ValueError("snapshot times must be strictly increasing")
        velocity = (state.positions - prev.positions) / dt

        div = _tension_flux_divergence(grid, u, tension)
        pde_rows = velocity[:-1] - div - self._g_vec
        self._pde_sq += dt * h * float(np.sum(pde_rows ** 2))

        product = tension.at_midpoints * (np.sum(u * u, axis=1) - 1.0)
        self._constraint_sq += dt * h * float(np.sum(product ** 2))

        vel_rows = velocity[:-1]
        slack = h * float(np.sum(vel_rows @ self._g_vec) - np.sum(vel_rows ** 2))
        self._slack = min(self._slack, slack)

    def result(self) -> GeneralizedResidual:
        """The residuals so far; ShapeError before a second pair."""
        if self._count < 2:
            raise ShapeError("need at least two snapshots")
        return GeneralizedResidual(
            pde_residual_L2=float(np.sqrt(self._pde_sq)),
            constraint_product_L2=float(np.sqrt(self._constraint_sq)),
            stretch_violation=max(self._stretch, 0.0),
            diss_inequality_slack=float(self._slack),
        )


def generalized_residual(
    pairs: Sequence[tuple[ArcState, TensionProfile]], g: GravitySpec
) -> GeneralizedResidual:
    """Measure how well a sampled trajectory satisfies the weak-solution
    conditions of the constrained flow: the ResidualAccumulator of its
    (state, tension) pairs."""
    acc = ResidualAccumulator(g)
    for state, tension in pairs:
        acc.add(state, tension)
    return acc.result()


def relative_energy_identity_check(
    state: ArcState, g: GravitySpec
) -> tuple[float, float, float]:
    """Both sides of the weighted-tangent form of the relative energy.

    lhs is the relative energy in midpoint quadrature, rhs the expression
    (1/2) int s |d_s(eta - eta_down)|^2 - (1/2) int s (|d_s eta|^2 - 1);
    the identity is exact for the continuum, so the returned gap is pure
    rounding when both sides share one quadrature.
    """
    grid = state.grid
    u = state.tangents
    s_mid = grid.midpoints
    g_vec = g.direction
    lhs = grid.quad_midpoint(s_mid * (u @ g_vec)) - EQUILIBRIUM_ENERGY
    diff = u + g_vec  # d_s eta - d_s eta_down, with eta_down = (1-s) g
    rhs = 0.5 * grid.quad_midpoint(s_mid * np.sum(diff * diff, axis=1)) \
        - 0.5 * grid.quad_midpoint(s_mid * (np.sum(u * u, axis=1) - 1.0))
    return float(lhs), float(rhs), float(abs(lhs - rhs))


def hardy_check(samples: np.ndarray, grid) -> float:
    """Weighted Hardy ratio int s^{-1}|f|^2 / int |f'|^2 of a node-sampled
    field vanishing at s = 0.

    The weight is integrated by the midpoint rule, so s^{-1} is only ever
    evaluated at s_{1/2} > 0.  The ratio is at most HARDY_RATIO_BOUND for
    smooth fields, up to discretization.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != grid.n_nodes:
        raise ShapeError(f"expected {grid.n_nodes} node samples")
    if np.any(samples[0] != 0.0):
        raise ValueError("field must vanish at s = 0")
    mids = 0.5 * (samples[:-1] + samples[1:])
    derivs = grid.diff_forward(samples)
    if samples.ndim == 1:
        num_density = mids ** 2 / grid.midpoints
        den_density = derivs ** 2
    else:
        num_density = np.sum(mids ** 2, axis=1) / grid.midpoints
        den_density = np.sum(derivs ** 2, axis=1)
    denominator = grid.quad_midpoint(den_density)
    if denominator == 0.0:
        raise ValueError("zero-derivative input: Hardy ratio undefined")
    return float(grid.quad_midpoint(num_density) / denominator)


def decay_fit(
    reports: Sequence[EnergyReport], window: tuple[float, float]
) -> DecayFit:
    """Least-squares exponential fit of the relative energy on a window.

    Fits log E_rel against t; also records the worst ratio of relative
    energy to dissipation over the window, the quantity a functional
    inequality would bound by a universal constant.
    """
    t_start, t_end = window
    selected = [r for r in reports if t_start <= r.t <= t_end]
    if len(selected) < 10:
        raise ValueError(f"need at least 10 reports in window, got {len(selected)}")
    e_rel = np.array([r.E_rel for r in selected])
    if e_rel.min() <= 0.0:
        raise ValueError("relative energy is not positive on the window; fit refused")
    t = np.array([r.t for r in selected])
    log_e = np.log(e_rel)
    slope, intercept = np.polyfit(t, log_e, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((log_e - fitted) ** 2))
    ss_tot = float(np.sum((log_e - log_e.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    diss = np.array([r.D for r in selected])
    with np.errstate(divide="ignore"):
        ratios = np.where(diss > 0.0, e_rel / np.where(diss > 0.0, diss, 1.0), np.inf)
    return DecayFit(
        window=(float(t_start), float(t_end)),
        rate=float(-slope),
        r_squared=float(r_squared),
        cbar0_check=float(ratios.max()),
    )


@dataclass(frozen=True)
class SigmaTailEntry:
    t: float
    tail_integral: float
    bound: float
    within: bool


def sigma_decay_check(
    traj: Trajectory, t_grid: Sequence[float], c0: float
) -> list[SigmaTailEntry]:
    """Tail integrals of the weighted tension distance against the decay
    bound (4 c0)^(-3/2) E_rel(0)^(1/2) exp(-c0 t / 2).

    The infinite tail is truncated at the final snapshot, which is only
    justified near equilibrium: the run must end with E_rel below 1e-3 of
    its initial value.  Violations are flagged, not asserted; the stated
    bound holds for the universal constant, not a fitted rate.
    """
    g = traj.gravity
    first, last = traj.states[0], traj.states[-1]
    e_rel0 = potential_energy(first, g) - EQUILIBRIUM_ENERGY
    e_rel_end = potential_energy(last, g) - EQUILIBRIUM_ENERGY
    # the absolute floor keeps exact-equilibrium trajectories (pure rounding
    # in both energies) admissible
    if not (e_rel_end <= max(1e-3 * e_rel0, 1e-12)):
        raise ValueError(
            "horizon insufficient for tail truncation: "
            f"E_rel(end) = {e_rel_end:.3g} vs E_rel(0) = {e_rel0:.3g}"
        )
    grid = first.grid
    s_mid = grid.midpoints
    times = traj.times
    weights = np.empty(len(times))
    for k, tension in enumerate(traj.tensions):
        weights[k] = grid.quad_midpoint(
            (tension.at_midpoints - s_mid) ** 2 / s_mid)

    entries = []
    for t in t_grid:
        mask = times[:-1] >= t
        tail = float(np.sum((times[1:] - times[:-1])[mask] * weights[:-1][mask]))
        bound = (4.0 * c0) ** -1.5 * np.sqrt(max(e_rel0, 0.0)) * np.exp(-0.5 * c0 * t)
        entries.append(
            SigmaTailEntry(t=float(t), tail_integral=tail, bound=float(bound),
                           within=tail <= bound)
        )
    return entries


def compatibility_predicate(
    state: ArcState, g: GravitySpec
) -> tuple[bool, float, float]:
    """Strict inequality |cos(alpha)| |eta''(1)| < 1 - |cos(alpha)|.

    When it holds, no time-regular solution can balance gravity at the
    pinned end at the initial instant, so the data admit no smooth
    evolution.  Returns (holds, lhs, rhs); the equilibria give
    lhs = rhs = 0, where the strict inequality correctly fails.
    """
    if state.grid.n_nodes < 3:
        raise ShapeError("need at least 3 nodes for the end curvature")
    cos_alpha = end_cos_alpha(state, g)
    second = second_differences(state.positions, state.grid.h)
    curvature_end = float(np.linalg.norm(second[-1]))
    lhs = abs(cos_alpha) * curvature_end
    rhs = 1.0 - abs(cos_alpha)
    return lhs < rhs, lhs, rhs
