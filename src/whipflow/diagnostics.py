"""Scalar functionals and verification residuals.

Everything the test batteries assert lives here: potential and perturbed
energies, the dissipation identity, weak-solution residuals, the weighted
Hardy ratio, exponential-decay fits, tension tail integrals, and the
compatibility predicate that detects initial data admitting no smooth
evolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeError
from .flow import ArcState, GravitySpec, Trajectory, discrete_energy
from .regmap import RegularizedMap
from .tension import TensionProfile, tension_for_state

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

    FIELDS = (
        "t", "E", "E_alt", "E_rel", "E_rel_back", "E_eps", "D",
        "cos_alpha", "max_stretch", "constraint_L1", "sigma_at_1",
    )


@dataclass(frozen=True)
class DecayFit:
    """Exponential fit of the relative energy over a time window."""

    window: tuple[float, float]
    rate: float
    r_squared: float
    cbar0_check: float


def potential_energy(state: ArcState, g: GravitySpec) -> float:
    """Trapezoid form of the potential energy, int (-g) . eta."""
    heights = state.positions @ (-g.direction)
    return state.grid.quad_trapezoid(heights)


def report(state: ArcState, rmap: RegularizedMap, g: GravitySpec) -> EnergyReport:
    """Evaluate every scalar functional of a state.

    The flux-based fields use the map's inverse at the midpoint tangents;
    the boundary tension comes from the two-point solve, so D reproduces
    the dissipation identity of the exact flow rather than the regularized
    surrogate (which is reported separately through constraint_L1).
    """
    grid = state.grid
    u = state.tangents
    s_mid = grid.midpoints
    g_vec = g.direction

    E = potential_energy(state, g)
    E_alt = grid.quad_midpoint(s_mid * (u @ g_vec))
    tension = tension_for_state(state, g)
    cos_alpha = -float(np.dot(g_vec, u[-1]))
    sigma_at_1 = tension.at_end

    speeds = np.linalg.norm(u, axis=1)
    flux = rmap.invert(u)
    flux_norm = np.linalg.norm(flux, axis=1)

    return EnergyReport(
        t=state.time,
        E=E,
        E_alt=E_alt,
        E_rel=E - EQUILIBRIUM_ENERGY,
        E_rel_back=-EQUILIBRIUM_ENERGY - E,
        E_eps=discrete_energy(state, rmap, g),
        D=1.0 - sigma_at_1 * cos_alpha,
        cos_alpha=cos_alpha,
        max_stretch=float(np.abs(speeds - 1.0).max()),
        constraint_L1=grid.quad_midpoint(flux_norm * np.abs(speeds ** 2 - 1.0)),
        sigma_at_1=sigma_at_1,
    )


def constitutive_tension(state: ArcState, rmap: RegularizedMap) -> TensionProfile:
    """The multiplier the regularized flow realizes: invert(u) . u,
    interpolated from the midpoints to the nodes.

    It is nonnegative by the radial structure of the map (the flux is
    parallel to the tangent), vanishes where the tangent does, and is the
    natural pairing when a computed run is tested against the
    weak-solution conditions.  The node at s = 0 is zero by the free-end
    condition; the node at s = 1 is linearly extrapolated.
    """
    u = state.tangents
    flux = rmap.invert(u)
    mid = np.sum(flux * u, axis=1)
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


def _tension_flux_divergence(state: ArcState, tension: TensionProfile) -> np.ndarray:
    """Node-centered divergence of sigma * d_s eta on nodes 0..n-1.

    The flux is reflected oddly below s = 0 (consistent with sigma(0) = 0),
    which makes the stationary profiles exact: their residual vanishes at
    the free end as well.
    """
    grid = state.grid
    u = state.tangents
    sigma_mid = 0.5 * (tension.values[:-1] + tension.values[1:])
    flux = sigma_mid[:, None] * u
    div = np.empty((grid.n_cells, state.dim))
    div[0] = 2.0 * flux[0] / grid.h
    div[1:] = (flux[1:] - flux[:-1]) / grid.h
    return div


def generalized_residual(
    pairs: Sequence[tuple[ArcState, TensionProfile]], g: GravitySpec
) -> GeneralizedResidual:
    """Measure how well a sampled trajectory satisfies the weak-solution
    conditions of the constrained flow.

    Time derivatives are backward differences between consecutive
    snapshots (matching the implicit stepper); spatial terms are evaluated
    at the newer level.  Returns the L2(space-time) norms of the PDE
    residual and of the tension-times-stretch product, the largest positive
    stretch excess, and the worst slack of the dissipation inequality
    int g . d_t eta - int |d_t eta|^2 (nonnegative for a true weak
    solution).
    """
    if len(pairs) < 2:
        raise ShapeError("need at least two snapshots")
    grid = pairs[0][0].grid
    g_vec = g.direction
    h = grid.h
    for state, tension in pairs:
        if state.grid.n_cells != grid.n_cells or tension.grid.n_cells != grid.n_cells:
            raise ShapeError("all snapshots must share one grid")

    pde_sq = 0.0
    constraint_sq = 0.0
    stretch = 0.0
    slack = np.inf
    for k in range(len(pairs)):
        state, tension = pairs[k]
        speeds = np.linalg.norm(state.tangents, axis=1)
        stretch = max(stretch, float((speeds - 1.0).max()))
        if k == 0:
            continue
        prev_state = pairs[k - 1][0]
        dt = state.time - prev_state.time
        if not (dt > 0.0):
            raise ValueError("snapshot times must be strictly increasing")
        velocity = (state.positions - prev_state.positions) / dt

        div = _tension_flux_divergence(state, tension)
        pde_rows = velocity[:-1] - div - g_vec
        pde_sq += dt * h * float(np.sum(pde_rows ** 2))

        u = state.tangents
        sigma_mid = 0.5 * (tension.values[:-1] + tension.values[1:])
        product = sigma_mid * (np.sum(u * u, axis=1) - 1.0)
        constraint_sq += dt * h * float(np.sum(product ** 2))

        vel_rows = velocity[:-1]
        slack_k = h * float(np.sum(vel_rows @ g_vec) - np.sum(vel_rows ** 2))
        slack = min(slack, slack_k)

    return GeneralizedResidual(
        pde_residual_L2=float(np.sqrt(pde_sq)),
        constraint_product_L2=float(np.sqrt(constraint_sq)),
        stretch_violation=max(stretch, 0.0),
        diss_inequality_slack=float(slack),
    )


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
    if traj.tensions is None:
        raise ValueError("sigma_decay_check needs tensions along the trajectory")
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
        sigma_mid = 0.5 * (tension.values[:-1] + tension.values[1:])
        weights[k] = grid.quad_midpoint((sigma_mid - s_mid) ** 2 / s_mid)

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
    grid = state.grid
    if grid.n_nodes < 3:
        raise ShapeError("need at least 3 nodes for the end curvature")
    eta = state.positions
    h = grid.h
    cos_alpha = -float(np.dot(g.direction, (eta[-1] - eta[-2]) / h))
    curvature_end = float(
        np.linalg.norm((eta[-1] - 2.0 * eta[-2] + eta[-3]) / (h * h))
    )
    lhs = abs(cos_alpha) * curvature_end
    rhs = 1.0 - abs(cos_alpha)
    return lhs < rhs, lhs, rhs
