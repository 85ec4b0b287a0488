"""Scalar functionals and verification residuals.

The functionals a run reports and the acceptance gate asserts: potential
and perturbed energies, the dissipation identity, weak-solution residuals
(taken as running sums, state by state or block by block, by a
ResidualAccumulator), the weighted Hardy ratio and exponential-decay fits.

The consumers of a run's states take them per block.  A state arrives as
``evolve``'s observer receives it, with the flux and the potential density
the stepper handed out, so no consumer inverts the map; its positions,
time, flux (and potential) are copied into a block of at most
BLOCK_FLOATS floats, and every column is computed for the whole block at
once when it is full (and for the last, partial one at ``flush``).  A
Reporter takes a run's energy report (one EnergyReport, one
``timeseries.csv`` row, per state), its tensions from one tridiagonal
solve per block; a RealizedResidual takes the weak-solution residual of
the states paired with the tensions they realize.  ``report`` and
``constitutive_tension`` are the one-state cases, so every column has one
implementation, and a running value is added to in state order, so a
block's rows and sums are bitwise those of its states taken one by one.
Reductions over the vector axis are ``grid.row_dot``'s component sums.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Optional, Sequence

import numpy as np

from .errors import ShapeError
from .flow import ArcState, GravitySpec, _check_compatible, _energy
from .flow import discrete_energy  # noqa: F401  (perfbench's spans.WRAPS)
from .grid import Grid, row_dot
from .regmap import RegularizedMap
from .tension import TensionProfile, flow_tensions
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


# Floats a consumer of a run's states keeps at most, its block of states
# included: 16 states of a Reporter at n = 200 in 2-D and 2 at n = 1500.
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


class _StateBlock:
    """A block of a run's states, taken as ``evolve``'s observer receives
    them: ``add(state, flux[, pot])`` copies the state's positions, time and
    flux (and, if the block keeps them, its potential density) into arrays
    that hold, with the ``reserve`` floats their owner keeps besides, at
    most BLOCK_FLOATS floats, or one state if that is larger.  A full
    block is handed to ``_take(m)`` at once; ``flush`` hands on the
    partial one.  Arrays of another shape are refused with ShapeError, not
    broadcast."""

    def __init__(self, grid: Grid, dim: int, with_pot: bool, reserve: int = 0):
        n = grid.n_cells
        per_state = (n + 1) * dim + n * dim + (n if with_pot else 0) + 1
        size = max(1, (BLOCK_FLOATS - reserve) // per_state)
        self._positions = np.empty((size, n + 1, dim))
        self._flux = np.empty((size, n, dim))
        self._pot = np.empty((size, n)) if with_pot else None
        self._times = np.empty(size)
        self._count = 0

    def add(self, state: ArcState, flux: np.ndarray,
            pot: Optional[np.ndarray] = None) -> None:
        given = [("state", state.positions, self._positions),
                 ("flux", flux, self._flux)]
        if self._pot is not None:
            given.append(("potential", pot, self._pot))
        for name, value, block in given:
            if np.shape(value) != block.shape[1:]:
                raise ShapeError(f"{name} of shape {np.shape(value)} in a "
                                 f"block of {block.shape[1:]}")
        k = self._count
        for _, value, block in given:
            block[k] = value
        self._times[k] = state.time
        self._count = k + 1
        if self._count == len(self._times):
            self.flush()

    def flush(self) -> None:
        """Take the states added since the last block was taken."""
        m, self._count = self._count, 0
        if m:
            self._take(m)

    def _take(self, m: int) -> None:
        raise NotImplementedError


class Reporter(_StateBlock):
    """The EnergyReports of a run's states, in the order they are added.

    ``add(state, flux, pot)`` takes a state with its flux
    invert(state.tangents) and potential density, as ``evolve``'s observer
    receives them, and copies them into the block; a full block is
    reported at once.  Call ``flush`` after the last state (also when the
    run failed) to report the partial block.  ``reports`` holds the rows
    reported so far and ``sup_u`` each reported state's largest tangent
    norm.  The boundary tension comes from the two-point solve, so D
    reproduces the dissipation identity of the exact flow rather than the
    regularized surrogate (which is reported separately through
    constraint_L1).
    """

    def __init__(self, grid: Grid, g: GravitySpec):
        super().__init__(grid, g.dim, with_pot=True)
        self.reports: list[EnergyReport] = []
        self.sup_u: list[float] = []
        self._grid, self._g = grid, g

    def _take(self, m: int) -> None:
        grid = self._grid
        h = grid.h
        g_vec = self._g.direction
        eta, flux = self._positions[:m], self._flux[:m]
        u = (eta[:, 1:] - eta[:, :-1]) / h
        speeds = np.sqrt(row_dot(u, u))
        E_eps = _energy(eta, self._pot[:m], h, g_vec)
        stretch = np.abs(speeds - 1.0).max(axis=-1)
        constraint = h * (np.sqrt(row_dot(flux, flux))
                          * np.abs(speeds ** 2 - 1.0)).sum(axis=-1)
        self.sup_u.extend(speeds.max(axis=-1).tolist())
        E = _potential_energies(eta, h, g_vec)
        E_alt = h * (grid.midpoints * (u @ g_vec)).sum(axis=-1)
        sigma, cos_alpha = flow_tensions(eta, h, g_vec)
        sigma_at_1 = sigma[:, -1]
        columns = zip(self._times[:m].tolist(), E.tolist(), E_alt.tolist(),
                      (E - EQUILIBRIUM_ENERGY).tolist(),
                      (-EQUILIBRIUM_ENERGY - E).tolist(), E_eps.tolist(),
                      (1.0 - sigma_at_1 * cos_alpha).tolist(),
                      cos_alpha.tolist(), stretch.tolist(),
                      constraint.tolist(), sigma_at_1.tolist())
        # the columns in EnergyReport.FIELDS order
        self.reports.extend(EnergyReport(*row) for row in columns)


def report(state: ArcState, rmap: RegularizedMap, g: GravitySpec) -> EnergyReport:
    """Evaluate every scalar functional of a state: a Reporter's row for
    it."""
    _check_compatible(state, rmap, g)
    flux, _, pot = rmap.local_calculus(state.tangents)
    reporter = Reporter(state.grid, g)
    reporter.add(state, flux, pot)
    reporter.flush()
    return reporter.reports[0]


def constitutive_tensions(flux: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The node values of constitutive_tension over leading axes: ``flux``
    and the tangents ``u`` of shape (..., n, d) give shape (..., n+1)."""
    mid = row_dot(flux, u)
    values = np.empty((*mid.shape[:-1], mid.shape[-1] + 1))
    values[..., 0] = 0.0
    values[..., 1:-1] = 0.5 * (mid[..., :-1] + mid[..., 1:])
    # linear extrapolation, clamped: the multiplier cannot be negative,
    # but extrapolating a profile that dips toward the pin could be
    values[..., -1] = np.maximum(1.5 * mid[..., -1] - 0.5 * mid[..., -2], 0.0)
    return values


def constitutive_tension(state: ArcState, flux: np.ndarray) -> TensionProfile:
    """The multiplier the regularized flow realizes: flux . u, with u the
    state's tangents and ``flux`` = invert(u) (as ``evolve``'s observer
    receives it), interpolated from the midpoints to the nodes; the
    one-curve case of constitutive_tensions.

    It is nonnegative by the radial structure of the map (the flux is
    parallel to the tangent), vanishes where the tangent does, and is the
    natural pairing when a computed run is tested against the
    weak-solution conditions.  The node at s = 0 is zero by the free-end
    condition; the node at s = 1 is linearly extrapolated.
    """
    return TensionProfile(grid=state.grid,
                          values=constitutive_tensions(flux, state.tangents))


@dataclass(frozen=True)
class GeneralizedResidual:
    """Discrete residuals of the weak-solution conditions over a run."""

    pde_residual_L2: float
    constraint_product_L2: float
    stretch_violation: float
    diss_inequality_slack: float


def _tension_flux_divergence(h: float, u: np.ndarray,
                             sigma_mid: np.ndarray) -> np.ndarray:
    """Node-centered divergence of sigma * d_s eta on nodes 0..n-1, over
    leading axes: tangents ``u`` of shape (..., n, d) and midpoint tensions
    ``sigma_mid`` of shape (..., n), on a grid of spacing h.

    The flux is reflected oddly below s = 0 (consistent with sigma(0) = 0),
    which makes the stationary profiles exact: their residual vanishes at
    the free end as well.
    """
    flux = sigma_mid[..., None] * u
    div = np.empty(u.shape)
    div[..., 0, :] = 2.0 * flux[..., 0, :] / h
    div[..., 1:, :] = (flux[..., 1:, :] - flux[..., :-1, :]) / h
    return div


class ResidualAccumulator:
    """The discrete residuals of the weak-solution conditions, taken one
    (state, tension) pair at a time (``add``), or a block of them
    (``add_block``), in increasing time; ``result()`` is the
    GeneralizedResidual of the pairs added so far.

    Time derivatives are backward differences between consecutive
    snapshots (matching the implicit stepper); spatial terms are evaluated
    at the newer level.  The result holds the L2(space-time) norms of the
    PDE residual and of the tension-times-stretch product, the largest
    positive stretch excess, and the worst slack of the dissipation
    inequality int g . d_t eta - int |d_t eta|^2 (nonnegative for a true
    weak solution).  Each term reads the newest pair and the previous
    state alone, so the accumulator keeps only that state's free nodes
    and running sums, which it adds to in state order: a block's result is
    bitwise that of its pairs added one by one.  ``sigma_min`` and
    ``sigma_max`` are the running extremes of the tensions added.  An add
    that raises leaves every running value as it was.
    """

    def __init__(self, g: GravitySpec):
        self._g_vec = g.direction
        self._n = None
        self._prev = None  # (time, free node positions) of the last state
        self._count = 0
        self._pde_sq = 0.0
        self._constraint_sq = 0.0
        self._stretch = 0.0
        self._slack = np.inf
        self.sigma_min = np.inf
        self.sigma_max = -np.inf

    def add(self, state: ArcState, tension: TensionProfile) -> None:
        """add_block of one pair."""
        if tension.grid.n_cells != state.grid.n_cells:
            raise ShapeError("all snapshots must share one grid")
        self.add_block(state.grid, state.positions[None], state.tangents[None],
                       np.array([state.time]), tension.values[None])

    def add_block(self, grid: Grid, positions: np.ndarray, u: np.ndarray,
                  times: np.ndarray, sigma: np.ndarray) -> None:
        """Add m states on ``grid``, in increasing time: node positions of
        shape (m, n+1, d), their tangents (m, n, d), times (m,) and node
        tensions (m, n+1)."""
        n, d = grid.n_cells, self._g_vec.shape[0]
        m = len(times)
        if ((self._n is not None and n != self._n)
                or positions.shape != (m, n + 1, d) or u.shape != (m, n, d)
                or sigma.shape != (m, n + 1)):
            raise ShapeError("all snapshots must share one grid and "
                             "the dimension of gravity")
        if m == 0:
            return
        # the pairs end at the block's states, bar the first state of all;
        # old holds the free nodes of each pair's older state
        first = 1 if self._prev is None else 0
        new = positions[first:, :-1]
        if first:
            t_old, old = times[:-1], positions[:-1, :-1]
        else:
            t_prev, prev = self._prev
            t_old = np.concatenate(([t_prev], times[:-1]))
            old = np.concatenate((prev[None], positions[:-1, :-1]))
        dts = times[first:] - t_old
        if not np.all(dts > 0.0):
            raise ValueError("snapshot times must be strictly increasing")

        h = grid.h
        u_sq = row_dot(u, u)
        stretch = (np.sqrt(u_sq) - 1.0).max(axis=-1)
        velocity = (new - old) / dts[:, None, None]
        sigma_mid = 0.5 * (sigma[first:, :-1] + sigma[first:, 1:])
        div = _tension_flux_divergence(h, u[first:], sigma_mid)
        pde = ((velocity - div - self._g_vec) ** 2).sum(axis=(1, 2))
        product = sigma_mid * (u_sq[first:] - 1.0)
        constraint = (product ** 2).sum(axis=-1)
        slack = (velocity @ self._g_vec).sum(axis=-1) \
            - (velocity ** 2).sum(axis=(1, 2))

        for value in stretch.tolist():
            self._stretch = max(self._stretch, value)
        for value in sigma.min(axis=-1).tolist():
            self.sigma_min = min(self.sigma_min, value)
        for value in sigma.max(axis=-1).tolist():
            self.sigma_max = max(self.sigma_max, value)
        for dt, pde_k, constraint_k, slack_k in zip(
                dts.tolist(), pde.tolist(), constraint.tolist(),
                slack.tolist()):
            self._pde_sq += dt * h * pde_k
            self._constraint_sq += dt * h * constraint_k
            self._slack = min(self._slack, h * slack_k)
        self._n = n
        self._prev = (times[-1], positions[-1, :-1].copy())
        self._count += m

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


class RealizedResidual(_StateBlock):
    """The ResidualAccumulator ``residual`` of a run's states, each paired
    with the tension it realizes, constitutive_tension(state, flux), and
    taken per block: ``add(state, flux)`` copies the state in, as
    ``evolve``'s observer receives it, and each full block goes into the
    accumulator at once.  Call ``flush`` after the last state.  The block
    and the accumulator's previous state together hold at most
    BLOCK_FLOATS floats."""

    def __init__(self, grid: Grid, g: GravitySpec):
        super().__init__(grid, g.dim, with_pot=False,
                         reserve=grid.n_cells * g.dim)
        self.residual = ResidualAccumulator(g)
        self._grid = grid

    def _take(self, m: int) -> None:
        eta = self._positions[:m]
        u = (eta[:, 1:] - eta[:, :-1]) / self._grid.h
        self.residual.add_block(self._grid, eta, u, self._times[:m],
                                constitutive_tensions(self._flux[:m], u))


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
