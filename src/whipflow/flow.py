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
banded Cholesky (LAPACK ``pbsv``, which ``_lapack`` takes from scipy's
compiled wrapper) on its lower band alone, and a failed factorization
rejects the step as a loss of convexity.  The flux Jacobian arrives in
radial form, inv_c1 I + gain k k^T (``RegularizedMap.local_calculus``),
and ``_newton_band`` writes the band from it straight into the
Fortran-ordered array ``pbsv`` factors in place; no dense Jacobian is
built.

A step's last Newton evaluation is at the state it accepts, so the step
hands that state's flux, Jacobian radial form and potential on: the next
step starts from them, and ``evolve``'s observer gets the flux and the
potential, so the map is inverted at each accepted state once.

Newton accepts a step by one of two exits, and ``evolve``'s stats count
each (``residual_exits``, ``decrement_exits``):

- the residual test: the max-norm residual is at most ``NEWTON_TOL``
  (1e-10) or a rounding floor of the residual, whichever is larger;
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

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from ._lapack import pbsv
from .errors import NumericDomainError, ShapeError, SolverFailure, StepRejected
from .grid import Grid, row_dot
from .regmap import _ZERO, RegularizedMap

_MACH = np.finfo(float).eps
# Newton's update cap per step and the tolerance of its residual test
NEWTON_MAX_ITER = 25
NEWTON_TOL = 1e-10
# evolve's time tolerance: a stop at most TIME_TOL*max(1, |horizon|) after
# the current time counts as reached, so a run from t = 0 to a horizon of
# at most TIME_TOL takes no step
TIME_TOL = 1e-12


@dataclass(frozen=True)
class GravitySpec:
    """Unit gravity direction."""

    direction: np.ndarray

    def __post_init__(self):
        direction = np.asarray(self.direction, dtype=float)
        if direction.ndim != 1 or direction.shape[0] not in (2, 3):
            raise ShapeError("gravity must be a 2- or 3-vector")
        if not abs(np.linalg.norm(direction) - 1.0) <= 1e-14:
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

    def __post_init__(self):
        if not (0.0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError(
                "need 0 < dt_min <= dt_init <= dt_max, got "
                f"{self.dt_min}, {self.dt_init}, {self.dt_max}"
            )


def _check_compatible(state: ArcState, rmap: RegularizedMap, g: GravitySpec):
    if state.dim != rmap.dim or state.dim != g.dim:
        raise ShapeError(
            f"dimension mismatch: state {state.dim}, map {rmap.dim}, gravity {g.dim}"
        )


def _energy(pos, pot, h, g_vec):
    """h times the cell sum of the flux potential ``pot`` plus h times the
    sum of the gravity heights of the n free nodes of ``pos``, over leading
    axes: ``pos`` of shape (..., n+1, d) and ``pot`` of shape (..., n)."""
    return h * pot.sum(axis=-1) \
        + h * (pos[..., :-1, :] @ (-g_vec)).sum(axis=-1)


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
    div = np.empty_like(flux)
    div[0] = flux[0]
    np.subtract(flux[1:], flux[:-1], out=div[1:])
    div /= h
    out = pos - prev_pos
    out /= dt
    rows = out[:n]
    rows -= div
    rows -= g_vec
    out[n] = pos[n]
    return out


def solve_banded(ab, rhs):
    """Solve the symmetric positive definite system whose lower band
    ``_newton_band`` wrote, by banded Cholesky.  Both arguments are
    overwritten: the band is Fortran-ordered and the right-hand side
    contiguous, so pbsv works in them without a copy.

    A factorization that fails certifies that the matrix is not positive
    definite; for the Newton Hessian of the convex incremental functional
    that rejects the step, naming the (0-based) row where it failed.
    """
    _, x, info = pbsv(ab, rhs, lower=1, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise StepRejected(
            f"Newton Hessian not positive definite at row {info - 1}")
    if info < 0:
        raise ValueError(f"pbsv rejected argument {-info}")
    return x


def _newton_band(kappa, radial, h, dt):
    """LAPACK lower band storage, ``ab[i - j, j] = A[i, j]`` in a
    Fortran-ordered (2d, n d) array, of the Newton matrix A = M/dt + K over
    the n free nodes, written from the flux ``kappa`` and the radial form
    ``radial`` = (inv_c1, gain) of its Jacobian J = inv_c1 I + gain kappa
    kappa^T (``RegularizedMap.local_calculus``).

    With b = J/h^2, diagonal block i is (b[i] + I/dt) + b[i-1] (no b[-1])
    and the block below it is -b[i].  Each entry keeps the float order of
    the dense fill: J_pq = (k_p k_q) gain + inv_c1 on the diagonal and
    + 0.0 off it, where the + 0.0 turns a -0 into +0; I/dt adds + 0.0 off
    the diagonal too."""
    inv_c1, gain = radial
    n, d = kappa.shape
    hh = np.array(h * h)
    inv_dt = np.array(1.0 / dt)
    ab = np.zeros((2 * d, n * d), order="F")
    for q in range(d):
        for p in range(q, d):
            b = kappa[:, p] * kappa[:, q]
            b *= gain
            b += inv_c1 if p == q else _ZERO
            b /= hh
            head = b[:-1]
            # ab[p - q, q::d] holds entry (p, q) of each diagonal block and
            # ab[d + p - q, q::d] entry (p, q) of each block below it
            diag = ab[p - q, q::d]
            np.add(b, inv_dt if p == q else _ZERO, out=diag)
            diag[1:] += head
            lower = ab[d + p - q, q::d][:-1]
            np.negative(head, out=lower)
            if p != q:
                ab[d + q - p, p::d][:-1] = lower
    return ab


def _newton_update(kappa, radial, res, h, dt):
    """The Newton update of the incremental objective at a state whose
    flux is ``kappa``, with its Jacobian's radial form ``radial``, and
    whose residual is ``res``: the solution of (M/dt + K) delta = -res over
    the n free nodes, K the stiffness of the flux divergence."""
    n, d = kappa.shape
    return solve_banded(_newton_band(kappa, radial, h, dt),
                        -res[:-1].reshape(-1)).reshape(n, d)


def _step_core(prev: ArcState, dt: float, rmap: RegularizedMap,
               g: GravitySpec, calc: tuple) -> tuple[ArcState, int, str, tuple]:
    """One implicit step from ``prev``, starting from ``calc``, prev's
    (flux, (inv_c1, gain), potential) as
    ``rmap.local_calculus(prev.tangents)`` returns them.  Each Newton
    iteration evaluates its trials through ``rmap.local_calculus`` and
    solves through the module's ``solve_banded``, the names a tracer
    wraps.  Returns the new state, the Newton iteration count, the test
    that accepted it (``"residual"`` or ``"decrement"``) and the new
    state's own triple, from the last evaluation; or raises
    StepRejected."""
    grid = prev.grid
    h = grid.h
    g_vec = g.direction
    prev_pos = prev.positions

    pos = prev_pos.copy()

    # Residual entries are assembled from terms of size |eta|/dt and
    # |flux|/h, and the flux itself carries an inversion noise of a few
    # ulps amplified by the radial stiffness (at most 1/eps).  Below this
    # floor the residual cannot be driven by any iteration, so the
    # effective tolerance is NEWTON_TOL or the floor, whichever is
    # larger.  The floor leaves out the rounding of the flux divergence,
    # O(mach |eta| / (eps h^2)), which dominates on fine grids; the
    # decrement exit below covers that regime.
    u = grid.diff_forward(prev_pos)
    pos_scale = max(1.0, float(np.abs(prev_pos).max()))
    u_scale = 1.0 + float(np.sqrt(row_dot(u, u).max()))
    floor = 64.0 * _MACH * (pos_scale / dt + u_scale / (rmap.eps * h))
    tol = max(NEWTON_TOL, floor)

    def incremental(pos_trial, pot_density):
        # strictly convex objective whose critical point is the new state:
        # the scheme's energy plus the proximal term of the step
        prox = (h / (2.0 * dt)) * ((pos_trial[:-1] - prev_pos[:-1]) ** 2).sum()
        return _energy(pos_trial, pot_density, h, g_vec) + prox

    flux, radial, pot = calc
    phi = incremental(pos, pot)
    res = _residual_from_flux(pos, prev_pos, dt, flux, h, g_vec)
    res_norm = np.abs(res).max()
    history = [res_norm]

    iters = 0
    resolved = False
    while not (res_norm <= tol or resolved):
        if iters == NEWTON_MAX_ITER:
            raise StepRejected(
                f"Newton did not converge in {NEWTON_MAX_ITER} iterations "
                f"(residual {res_norm:.3e})"
            )
        if len(history) > 5 and history[-1] > 0.9 * history[-6]:
            raise StepRejected(
                f"Newton stalled at residual {res_norm:.3e} after "
                f"{iters} iterations"
            )

        delta = _newton_update(flux, radial, res, h, dt)

        # Armijo backtracking on the incremental objective.  Near the
        # minimum the required decrease falls below the float resolution
        # of the objective itself; the rounding allowance keeps the search
        # from thrashing there.
        slope = h * float((res[:-1] * delta).sum())
        rounding = 16.0 * _MACH * (abs(phi) + 1.0)
        # The Newton decrement -slope is twice the decrease the full step
        # predicts on this convex objective.  Once it is within phi's
        # rounding, phi cannot resolve what is left: the full step is taken
        # even if Armijo fails it by rounding, and it ends the step unless
        # the residual test passes first.  A full step outside the numeric
        # domain falls back to the plain search.
        resolved = -slope <= rounding
        alpha = 1.0
        while True:
            trial = pos.copy()
            trial[:-1] += alpha * delta
            u = grid.diff_forward(trial)
            try:
                flux, radial, pot = rmap.local_calculus(u)
            except NumericDomainError:
                resolved = False
                cause = "line search left the numeric domain"
            else:
                phi_trial = incremental(trial, pot)
                armijo = phi + 1e-4 * alpha * slope + rounding
                if resolved or phi_trial <= armijo:
                    break
                cause = f"line search failed at residual {res_norm:.3e}"
            alpha *= 0.5
            if alpha < 1e-10:
                raise StepRejected(cause)
        if (trial == pos).all():
            # every later iteration would repeat this residual, solve and
            # trial, so the step can only end rejected
            raise StepRejected(
                f"Newton update {iters + 1} left the positions unchanged "
                f"at residual {res_norm:.3e}"
            )
        pos = trial
        phi = phi_trial
        res = _residual_from_flux(pos, prev_pos, dt, flux, h, g_vec)
        res_norm = np.abs(res).max()
        iters += 1
        history.append(res_norm)

    # a decrement exit leaves the error of one more update, bounded in the
    # module docstring
    return (ArcState(grid=grid, positions=pos, time=prev.time + dt), iters,
            "residual" if res_norm <= tol else "decrement", (flux, radial, pot))


def step(prev: ArcState, dt: float, rmap: RegularizedMap,
         g: GravitySpec) -> ArcState:
    """Advance one implicit step of size dt.

    Raises StepRejected when Newton fails to converge; no partial state
    escapes.  The returned state passed one of the two Newton exits (see
    the module docstring) and has its pinned end exactly at the origin.
    """
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    _check_compatible(prev, rmap, g)
    return _step_core(prev, dt, rmap, g, rmap.local_calculus(prev.tangents))[0]


def evolve(
    init: ArcState,
    horizon: float,
    rmap: RegularizedMap,
    g: GravitySpec,
    cfg: StepperConfig,
    observer: Optional[Callable[[ArcState, float, int, np.ndarray, np.ndarray],
                                None]] = None,
    stats: Optional[dict] = None,
    stops: Sequence[float] = (),
) -> ArcState:
    """Integrate from ``init`` to the time horizon with adaptive dt,
    stopping on the way at each time of ``stops`` (in [init.time, horizon]).

    A step that would pass the next stop, or end short of it by at most
    TIME_TOL max(1, |horizon|), is cut to end there and carries the stop's
    time exactly; a step that ends on it keeps its dt, and a stop that
    close after a state counts as reached.  dt is halved on rejection
    (hard failure below dt_min); by one rule, it grows 1.2x (capped at
    dt_max) after a step of at most 5 Newton iterations and is kept after
    any other, so a cut step does not shrink the next one.  After every
    accepted step ``observer(state, dt, newton_iters, flux, pot)`` runs,
    with the state's flux ``rmap.invert(state.tangents)`` and potential
    density ``rmap.potential(state.tangents)`` from the step's last
    evaluation; both are read-only, since the next step starts from them.
    A ``stats`` dict, when given, gets the step and rejection counts
    and the steps each Newton exit accepted (``residual_exits``,
    ``decrement_exits``).
    """
    if horizon < init.time:
        raise ValueError(f"horizon {horizon} precedes initial time {init.time}")
    if any(not init.time <= t <= horizon for t in stops):
        raise ValueError(f"stops {stops} outside [{init.time}, {horizon}]")
    _check_compatible(init, rmap, g)
    state = init
    calc = rmap.local_calculus(init.tangents)
    dt = cfg.dt_init
    tiny = TIME_TOL * max(1.0, abs(horizon))
    rejections = 0
    steps = 0
    total_iters = 0
    exits = {"residual": 0, "decrement": 0}
    try:
        for stop in sorted({*stops, horizon}):
            while stop - state.time > tiny:
                t_next = state.time + dt
                cut = t_next != stop and t_next >= stop - tiny
                dt_step = stop - state.time if cut else dt
                try:
                    # a rejected attempt leaves calc, the state's own, as it is
                    new_state, iters, exit_test, calc = _step_core(
                        state, dt_step, rmap, g, calc)
                except StepRejected as exc:
                    rejections += 1
                    if dt_step <= cfg.dt_min:
                        raise SolverFailure(
                            f"time step underflow at t = {state.time:.6g}: "
                            f"{exc}",
                            diagnostics={"time": state.time, "dt": dt_step,
                                         "rejections": rejections},
                        ) from exc
                    dt = max(0.5 * dt_step, cfg.dt_min)
                    continue
                state = replace(new_state, time=stop) if cut else new_state
                steps += 1
                total_iters += iters
                exits[exit_test] += 1
                if observer is not None:
                    flux, _, pot = calc
                    flux.flags.writeable = pot.flags.writeable = False
                    observer(state, dt_step, iters, flux, pot)
                if iters <= 5:
                    dt = min(dt * 1.2, cfg.dt_max)
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
