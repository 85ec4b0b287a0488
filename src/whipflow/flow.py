"""Implicit time integration of the regularized string flow.

The evolution advances node positions by backward Euler applied to

    d_t eta = d_s( invert(d_s eta) ) + g,     eta(t, 1) = 0,
                                              d_s eta(t, 0) = 0,

where ``invert`` is the inverse constitutive map of
:class:`~whipflow.regmap.RegularizedMap`.  The free end is closed by a
ghost value making the tangent (hence the flux) vanish below s = 0, and the
pinned node is eliminated from the unknowns.  Because the inverse map is
the gradient of a strictly convex potential, each implicit step is the
unique minimizer of a strictly convex incremental functional; Newton with
an Armijo line search on that functional converges globally, the discrete
energy is nonincreasing across accepted steps, and the summed squared
velocities are bounded by the total energy drop.

Backward Euler rather than an explicit scheme: the largest eigenvalue of
the flux Jacobian scales like 1/eps, which would force dt of order
eps * h^2 on the explicit side, hopeless at the eps = 1e-4 runs the
constraint-recovery study needs.

Each Newton system is the Hessian of that strictly convex functional, so it
is symmetric positive definite and block tridiagonal: it is solved by
banded Cholesky (LAPACK ``pbsv``) on its lower band alone, and a failed
factorization rejects the step as a loss of convexity.

Newton accepts a step by one of two exits, and ``evolve``'s stats count
each (``residual_exits``, ``decrement_exits``):

- the residual test: the max-norm residual is at most ``newton_tol`` or a
  rounding floor of the residual, whichever is larger;
- the decrement test: the Newton decrement lambda^2 = -slope (Boyd and
  Vandenberghe, *Convex Optimization*, 9.5) of the update just taken is
  within the rounding allowance 16 mach (|phi| + 1) of the objective phi,
  which the Armijo search already uses.  phi cannot resolve any further
  decrease, so the full update ends the step (counted as a residual exit
  if it passes the residual test as well).  This exit is the one that
  fires on fine grids, where the residual floor leaves out the
  O(mach |eta| / (eps h^2)) rounding of the flux divergence and the
  residual stalls above it.

The decrement bounds the update it accepts, h |delta|^2 / dt <= lambda^2,
and the error left in the accepted state is one more Newton update; on the
2000-cell quarter-circle release at eps = 1e-3 that update is at most
7.3e-15 in max norm (``tests/test_flow.py`` checks 1e-12), far below the
O(dt) error of backward Euler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import NumericDomainError, ShapeError, SolverFailure, StepRejected
from .grid import Grid
from .regmap import RegularizedMap

_PBSV, = get_lapack_funcs(("pbsv",), (np.empty(0),))
_MACH = np.finfo(float).eps
# Newton updates one step may take before it is rejected
NEWTON_MAX_ITER = 25


@dataclass(frozen=True)
class GravitySpec:
    """Unit gravity direction."""

    direction: np.ndarray

    def __post_init__(self):
        direction = np.asarray(self.direction, dtype=float)
        if direction.ndim != 1 or direction.shape[0] not in (2, 3):
            raise ShapeError("gravity must be a 2- or 3-vector")
        if abs(np.linalg.norm(direction) - 1.0) > 1e-14:
            raise ValueError("gravity must be a unit vector (within 1e-14)")
        direction = direction.copy()
        direction.flags.writeable = False
        object.__setattr__(self, "direction", direction)

    @property
    def dim(self) -> int:
        return self.direction.shape[0]

    @classmethod
    def down(cls, dim: int = 2) -> "GravitySpec":
        g = np.zeros(dim)
        g[-1] = -1.0
        return cls(g)

    def flipped(self) -> "GravitySpec":
        return GravitySpec(-self.direction)


@dataclass(frozen=True)
class ArcState:
    """Sampled curve at one instant: node positions with the end pinned at
    the origin."""

    grid: Grid
    positions: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[0] != self.grid.n_nodes:
            raise ShapeError(
                f"positions must be ({self.grid.n_nodes}, d), got {pos.shape}"
            )
        if pos.shape[1] not in (2, 3):
            raise ShapeError("ambient dimension must be 2 or 3")
        if not np.all(np.isfinite(pos)):
            raise NumericDomainError("positions contain non-finite entries")
        if np.any(pos[-1] != 0.0):
            raise ValueError("the s = 1 end must be pinned exactly at the origin")
        pos = pos.copy()
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def tangents(self) -> np.ndarray:
        """Midpoint tangent field d_s eta, shape (n_cells, d)."""
        return self.grid.diff_forward(self.positions)


@dataclass(frozen=True)
class StepperConfig:
    """Adaptive implicit-Euler controls."""

    dt_init: float
    dt_min: float
    dt_max: float
    newton_tol: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError(
                "need 0 < dt_min <= dt_init <= dt_max, got "
                f"{self.dt_min}, {self.dt_init}, {self.dt_max}"
            )


@dataclass(frozen=True)
class Trajectory:
    """A completed run: states and their tensions at increasing times,
    under a fixed gravity."""

    states: tuple
    gravity: GravitySpec
    tensions: tuple

    def __post_init__(self):
        states = tuple(self.states)
        if len(states) < 1:
            raise ValueError("trajectory needs at least one state")
        times = [s.time for s in states]
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("trajectory times must be strictly increasing")
        object.__setattr__(self, "states", states)
        tensions = tuple(self.tensions)
        if len(tensions) != len(states):
            raise ShapeError("one tension profile per state is required")
        object.__setattr__(self, "tensions", tensions)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.states])

    def pairs(self):
        """The (state, tension) pairs."""
        return list(zip(self.states, self.tensions))


def _check_compatible(state: ArcState, rmap: RegularizedMap, g: GravitySpec):
    if state.dim != rmap.dim or state.dim != g.dim:
        raise ShapeError(
            f"dimension mismatch: state {state.dim}, map {rmap.dim}, gravity {g.dim}"
        )


def _energy(pos, pot, h, g_vec):
    """h times the cell sum of the flux potential ``pot`` plus h times the
    sum of the gravity heights of the n free nodes of ``pos``."""
    return h * pot.sum() + h * (pos[:-1] @ (-g_vec)).sum()


def discrete_energy(state: ArcState, rmap: RegularizedMap, g: GravitySpec) -> float:
    """The Lyapunov functional of the scheme: midpoint quadrature of the
    flux potential plus the cell sum of the gravity potential.

    This exact form (not the trapezoid one) is what backward Euler
    decreases monotonically, because the scheme is its gradient flow under
    the uniform lumped mass h per non-pinned node.
    """
    _check_compatible(state, rmap, g)
    return float(_energy(state.positions, rmap.potential(state.tangents),
                         state.grid.h, g.direction))


def residual(
    state: ArcState,
    prev: ArcState,
    dt: float,
    rmap: RegularizedMap,
    g: GravitySpec,
) -> np.ndarray:
    """Backward-Euler residual of ``state`` against ``prev``, node by node.

    Rows 0..n-1 are (eta - eta_prev)/dt - divergence(flux) - g with zero
    ghost flux below the free end; the last row returns the pin violation
    eta(1) itself.
    """
    if state.grid.n_cells != prev.grid.n_cells or state.dim != prev.dim:
        raise ShapeError("state and prev must share one grid and dimension")
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    _check_compatible(state, rmap, g)
    flux = rmap.invert(state.tangents)
    return _residual_from_flux(state.positions, prev.positions, dt, flux,
                               state.grid.h, g.direction)


def _residual_from_flux(pos, prev_pos, dt, flux, h, g_vec):
    n = flux.shape[0]
    out = np.empty_like(pos)
    out[0] = (pos[0] - prev_pos[0]) / dt - flux[0] / h - g_vec
    out[1:n] = (pos[1:n] - prev_pos[1:n]) / dt \
        - (flux[1:] - flux[:-1]) / h - g_vec
    out[n] = pos[n]
    return out


def _banded_from_blocks(diag, lower, d):
    """Pack a symmetric block-tridiagonal matrix (d x d blocks) into LAPACK
    lower band storage: ``ab[i - j, j] = A[i, j]`` for the 2d - 1
    subdiagonals and the diagonal."""
    n_blocks = diag.shape[0]
    ab = np.zeros((2 * d, n_blocks * d))
    for p in range(d):
        for q in range(d):
            if p >= q:
                ab[p - q, q::d] = diag[:, p, q]
            ab[d + p - q, q::d][: n_blocks - 1] = lower[:, p, q]
    return ab


def solve_banded(ab, rhs):
    """Solve the symmetric positive definite system whose lower band
    ``_banded_from_blocks`` packed, by banded Cholesky.  Both arguments are
    overwritten.

    A factorization that fails certifies that the matrix is not positive
    definite; for the Newton Hessian of the convex incremental functional
    that rejects the step, naming the (0-based) row where it failed.
    """
    _, x, info = _PBSV(ab, rhs, lower=1, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise StepRejected(
            f"Newton Hessian not positive definite at row {info - 1}")
    if info < 0:
        raise ValueError(f"pbsv rejected argument {-info}")
    return x


def _newton_update(jac, res, h, eye_dt):
    """The Newton update of the incremental objective at a state whose
    flux Jacobian blocks are ``jac`` and whose residual is ``res``: the
    solution of (M/dt + K) delta = -res over the n free nodes, K the
    stiffness of the flux divergence."""
    n, d = res.shape[0] - 1, res.shape[1]
    blocks = jac / (h * h)
    diag = blocks + eye_dt
    diag[1:] += blocks[:-1]
    ab = _banded_from_blocks(diag, -blocks[:-1], d)
    return solve_banded(ab, -res[:-1].reshape(-1)).reshape(n, d)


def _step_core(prev: ArcState, dt: float, rmap: RegularizedMap, g: GravitySpec,
               cfg: StepperConfig) -> tuple[ArcState, int, str]:
    """One implicit step; returns the new state, the Newton iteration
    count and the test that accepted it (``"residual"`` or
    ``"decrement"``), or raises StepRejected."""
    grid = prev.grid
    h = grid.h
    g_vec = g.direction
    prev_pos = prev.positions

    pos = prev_pos.copy()
    eye_dt = np.eye(prev.dim) / dt

    # Residual entries are assembled from terms of size |eta|/dt and
    # |flux|/h, and the flux itself carries an inversion noise of a few
    # ulps amplified by the radial stiffness (at most 1/eps).  Below this
    # floor the residual cannot be driven by any iteration, so the
    # effective tolerance is the requested one or the floor, whichever is
    # larger.  The floor leaves out the rounding of the flux divergence,
    # O(mach |eta| / (eps h^2)), which dominates on fine grids; the
    # decrement exit below covers that regime.
    u = grid.diff_forward(prev_pos)
    pos_scale = max(1.0, float(np.abs(prev_pos).max()))
    u_scale = 1.0 + float(np.linalg.norm(u, axis=1).max())
    floor = 64.0 * _MACH * (pos_scale / dt + u_scale / (rmap.eps * h))
    tol = max(cfg.newton_tol, floor)

    def incremental(pos_trial, pot_density):
        # strictly convex objective whose critical point is the new state:
        # the scheme's energy plus the proximal term of the step
        prox = (h / (2.0 * dt)) * np.sum((pos_trial[:-1] - prev_pos[:-1]) ** 2)
        return _energy(pos_trial, pot_density, h, g_vec) + prox

    flux, jac, pot = rmap.local_calculus(u)
    phi = incremental(pos, pot)
    res = _residual_from_flux(pos, prev_pos, dt, flux, h, g_vec)
    res_norm = np.abs(res).max()
    history = [res_norm]

    for iteration in range(NEWTON_MAX_ITER + 1):
        if res_norm <= tol:
            return (ArcState(grid=grid, positions=pos, time=prev.time + dt),
                    iteration, "residual")
        if iteration == NEWTON_MAX_ITER:
            raise StepRejected(
                f"Newton did not converge in {NEWTON_MAX_ITER} iterations "
                f"(residual {res_norm:.3e})"
            )
        if len(history) > 5 and history[-1] > 0.9 * history[-6]:
            raise StepRejected(
                f"Newton stalled at residual {res_norm:.3e} after "
                f"{iteration} iterations"
            )

        delta = _newton_update(jac, res, h, eye_dt)

        # Armijo backtracking on the incremental objective.  Near the
        # minimum the required decrease falls below the float resolution
        # of the objective itself; the rounding allowance keeps the search
        # from thrashing there.
        slope = h * float(np.sum(res[:-1] * delta))
        rounding = 16.0 * _MACH * (abs(phi) + 1.0)
        # The Newton decrement -slope is twice the decrease the full step
        # predicts on this convex objective.  Once it is within phi's
        # rounding, phi cannot resolve what is left: the full step is taken
        # even if Armijo fails it by rounding, and accepted below unless
        # the residual test passes first.  A full step outside the numeric
        # domain falls back to the plain search.
        resolved = -slope <= rounding
        alpha = 1.0
        while True:
            trial = pos.copy()
            trial[:-1] += alpha * delta
            u = grid.diff_forward(trial)
            try:
                flux, jac, pot = rmap.local_calculus(u)
            except NumericDomainError:
                alpha *= 0.5
                resolved = False
                if alpha < 1e-10:
                    raise StepRejected("line search left the numeric domain")
                continue
            phi_trial = incremental(trial, pot)
            if resolved or phi_trial <= phi + 1e-4 * alpha * slope + rounding:
                break
            alpha *= 0.5
            if alpha < 1e-10:
                raise StepRejected(
                    f"line search failed at residual {res_norm:.3e}"
                )
        if np.array_equal(trial, pos):
            # every later iteration would repeat this residual, solve and
            # trial, so the step can only end rejected
            raise StepRejected(
                f"Newton update {iteration + 1} left the positions unchanged "
                f"at residual {res_norm:.3e}"
            )
        pos = trial
        phi = phi_trial
        res = _residual_from_flux(pos, prev_pos, dt, flux, h, g_vec)
        res_norm = np.abs(res).max()
        if resolved and res_norm > tol:
            # the residual floor lies below the rounding of this residual,
            # so further updates would only repeat rounding; the error left
            # is one more update, bounded in the module docstring
            return (ArcState(grid=grid, positions=pos, time=prev.time + dt),
                    iteration + 1, "decrement")
        history.append(res_norm)


def step(prev: ArcState, dt: float, rmap: RegularizedMap, g: GravitySpec,
         cfg: StepperConfig) -> ArcState:
    """Advance one implicit step of size dt.

    Raises StepRejected when Newton fails to converge; no partial state
    escapes.  The returned state passed one of the two Newton exits (see
    the module docstring) and has its pinned end exactly at the origin.
    """
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    _check_compatible(prev, rmap, g)
    state, _, _ = _step_core(prev, dt, rmap, g, cfg)
    return state


def evolve(
    init: ArcState,
    horizon: float,
    rmap: RegularizedMap,
    g: GravitySpec,
    cfg: StepperConfig,
    observer: Optional[Callable[[ArcState, float, int], None]] = None,
    stats: Optional[dict] = None,
) -> ArcState:
    """Integrate from ``init`` to the time horizon with adaptive dt.

    The step is halved on rejection (hard failure below dt_min), grown by
    1.2x after easy Newton convergence, clamped to [dt_min, dt_max] and to
    the remaining horizon.  ``observer(state, dt, newton_iters)`` runs
    after every accepted step; a ``stats`` dict, when given, is filled with
    step and rejection counts, and with how many steps each Newton exit
    accepted (``residual_exits``, ``decrement_exits``).
    """
    if horizon < init.time:
        raise ValueError(f"horizon {horizon} precedes initial time {init.time}")
    _check_compatible(init, rmap, g)
    state = init
    dt = min(max(cfg.dt_init, cfg.dt_min), cfg.dt_max)
    tiny = 1e-12 * max(1.0, abs(horizon))
    rejections = 0
    steps = 0
    total_iters = 0
    exits = {"residual": 0, "decrement": 0}
    try:
        while horizon - state.time > tiny:
            dt_step = min(dt, horizon - state.time)
            try:
                new_state, iters, exit_test = _step_core(state, dt_step, rmap,
                                                         g, cfg)
            except StepRejected as exc:
                rejections += 1
                if dt_step <= cfg.dt_min:
                    raise SolverFailure(
                        f"time step underflow at t = {state.time:.6g}: {exc}",
                        diagnostics={
                            "time": state.time,
                            "dt": dt_step,
                            "rejections": rejections,
                        },
                    ) from exc
                dt = max(0.5 * dt_step, cfg.dt_min)
                continue
            state = new_state
            steps += 1
            total_iters += iters
            exits[exit_test] += 1
            if observer is not None:
                observer(state, dt_step, iters)
            if iters <= 5:
                dt = min(dt_step * 1.2, cfg.dt_max)
            else:
                dt = dt_step
    finally:
        if stats is not None:
            stats.update(
                steps=steps,
                rejections=rejections,
                newton_iterations=total_iters,
                residual_exits=exits["residual"],
                decrement_exits=exits["decrement"],
                final_time=state.time,
            )
    return state
