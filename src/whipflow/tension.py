"""Linear two-point boundary-value solvers for the tension.

The multiplier enforcing inextensibility solves, at each frozen time,

    sigma'' - |eta''|^2 sigma + f = 0,   sigma(0) = 0,  sigma'(1) = nu,

with f = 0 and nu = cos(alpha) for the gradient-flow tension, and with
f = |v'|^2, nu = 0 for the geodesic tension of an initial velocity field v.
Both are second-order central-difference discretizations with the Neumann
row closed by ghost-node elimination, which keeps the system tridiagonal
and preserves O(h^2) accuracy at s = 1 where the dissipation-controlling
value sigma(1) lives.  Negated, and with the Neumann row halved, the
system is symmetric positive definite for c >= 0 and is solved by
tridiagonal Cholesky (LAPACK ``ptsv``, which ``_lapack`` takes from scipy's
compiled wrapper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import ptsv
from .errors import (NumericDomainError, ShapeError, TensionSolveError,
                     UnderResolvedError)
from .flow import ArcState, GravitySpec
from .grid import Grid, row_dot
from .regmap import EPS_MAX, check_eps


@dataclass(frozen=True)
class TensionProfile:
    """Node-sampled scalar multiplier with the pinned value sigma(0) = 0.

    Its values must be finite (else NumericDomainError, a ValueError)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_nodes,):
            raise ShapeError(
                f"tension needs {self.grid.n_nodes} node values, got {values.shape}"
            )
        if not np.isfinite(values).all():
            raise NumericDomainError("tension contains non-finite values")
        if values[0] != 0.0:
            raise ValueError("tension must vanish at s = 0")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def at_end(self) -> float:
        """sigma(1)."""
        return float(self.values[-1])

    @property
    def at_midpoints(self) -> np.ndarray:
        """sigma at the cell midpoints, the mean of the two end nodes."""
        return 0.5 * (self.values[:-1] + self.values[1:])


@dataclass(frozen=True)
class GeodesicTensionProblem:
    """Coefficient data for one tension solve.

    ``curvature_sq`` holds node samples of |eta''|^2, ``speed_sq`` the
    nonnegative source (zero for the gradient-flow problem), and
    ``neumann_value`` the prescribed slope at s = 1.
    """

    grid: Grid
    curvature_sq: np.ndarray
    speed_sq: np.ndarray
    neumann_value: float

    def __post_init__(self):
        n = self.grid.n_nodes
        c = np.asarray(self.curvature_sq, dtype=float)
        f = np.asarray(self.speed_sq, dtype=float)
        if c.shape != (n,) or f.shape != (n,):
            raise ShapeError(f"coefficients need {n} node values")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(f))
                and np.isfinite(self.neumann_value)):
            raise ValueError("coefficients must be finite")
        if c.min() < 0.0 or f.min() < 0.0:
            raise ValueError("curvature_sq and speed_sq must be nonnegative")
        c = c.copy(); c.flags.writeable = False
        f = f.copy(); f.flags.writeable = False
        object.__setattr__(self, "curvature_sq", c)
        object.__setattr__(self, "speed_sq", f)


# looked up by name at each call, so perfbench's spans.WRAPS can wrap it
def solve_tension(problem: GeodesicTensionProblem) -> TensionProfile:
    """Solve the Dirichlet-Neumann tension problem.

    Row 0 pins sigma(0) = 0; interior rows are central differences of
    sigma'' - c*sigma + f; the s = 1 row eliminates the ghost node through
    the Neumann condition, giving

        (2/h^2) sigma_{N-1} - (2/h^2 + c_N) sigma_N = -f_N - 2 nu / h.

    Negating every row and halving the last one makes the system symmetric
    positive definite: diagonal 2/h^2 + c, off-diagonal -1/h^2, last
    diagonal 1/h^2 + c_N/2 with right-hand side f_N/2 + nu/h.  Affine
    solutions of the c = f = 0 problem are reproduced exactly.
    """
    grid = problem.grid
    diag, rhs = _rows(problem.curvature_sq, problem.speed_sq,
                      problem.neumann_value, grid.h)
    values = np.empty(grid.n_nodes)
    values[0] = 0.0
    values[1:] = _solve_chain(diag, rhs, grid.h)
    return TensionProfile(grid=grid, values=values)


def _rows(c, f, nu, h):
    """The diagonal and the right-hand side of solve_tension's system for
    sigma_1..sigma_N (the Dirichlet unknown is eliminated up front), over
    leading axes: ``c`` and ``f`` of shape (..., N+1), ``nu`` of shape
    (...)."""
    inv_h2 = 1.0 / (h * h)
    diag = 2.0 * inv_h2 + c[..., 1:]
    diag[..., -1] = inv_h2 + 0.5 * c[..., -1]
    rhs = f[..., 1:].copy()
    rhs[..., -1] = 0.5 * f[..., -1] + nu / h
    return diag, rhs


def _solve_chain(diag, rhs, h):
    """Solve the systems of ``_rows`` (leading axes: one system each) by one
    LAPACK ``ptsv`` call on their block-diagonal chain.  The coupling
    between two systems is zero, so each one's arithmetic is that of its
    own solve."""
    off = np.full(diag.shape, -1.0 / (h * h))
    off[..., -1] = 0.0
    # the LAPACK wrapper wants one off-diagonal entry even when N = 1
    off = off.reshape(-1)[:max(off.size - 1, 1)]
    _, _, solved, info = ptsv(diag.reshape(-1), off, rhs.reshape(-1),
                              overwrite_d=1, overwrite_e=1, overwrite_b=1)
    if info != 0:
        raise TensionSolveError(
            f"tridiagonal tension solve failed (LAPACK ptsv info {info})")
    if not np.all(np.isfinite(solved)):
        raise TensionSolveError("tension solve produced non-finite values")
    return solved.reshape(diag.shape)


def end_cos_alpha(state: ArcState, g: GravitySpec) -> float:
    """The end slope cos(alpha) = -g . eta'(1), with eta'(1) the last
    forward difference (eta_N - eta_{N-1})/h."""
    return float(_end_slopes(state.positions, state.grid.h, g.direction))


def _end_slopes(eta, h, g_vec):
    """end_cos_alpha of node positions ``eta`` of shape (..., N+1, d).

    Each slope is its own (1, d) @ (d,) product, which numpy evaluates as
    the dot product np.dot does, whatever the leading shape: a stacked
    (m, d) @ (d,) product goes through a matrix-vector kernel that can
    round the last bit differently."""
    end = (eta[..., -1, :] - eta[..., -2, :]) / h
    return -(end[..., None, :] @ g_vec)[..., 0]


def second_differences(eta: np.ndarray, h: float) -> np.ndarray:
    """eta'' at every node of positions ``eta`` of shape (..., N+1, d):
    central second differences inside, one-sided ones (the same stencil as
    the neighbour's) at the two boundary nodes.  Needs at least 3 nodes."""
    second = np.empty_like(eta)
    second[..., 1:-1, :] = (eta[..., 2:, :] - 2.0 * eta[..., 1:-1, :]
                            + eta[..., :-2, :]) / (h * h)
    second[..., 0, :] = (eta[..., 0, :] - 2.0 * eta[..., 1, :]
                         + eta[..., 2, :]) / (h * h)
    second[..., -1, :] = (eta[..., -1, :] - 2.0 * eta[..., -2, :]
                          + eta[..., -3, :]) / (h * h)
    return second


def flow_tensions(eta: np.ndarray, h: float,
                  g_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma at every node, cos(alpha)) of curves with node positions
    ``eta`` of shape (..., N+1, d): the gradient-flow tension problem, with
    |eta''|^2 from second_differences and cos(alpha) from the end slope,
    assembled by solve_tension's rows for each curve and solved in one
    ``ptsv`` call (leading axes: one curve each)."""
    if eta.shape[-2] < 3:
        raise ShapeError("the flow tension needs at least 3 nodes")
    second = second_differences(eta, h)
    curvature_sq = row_dot(second, second)
    if not np.all(np.isfinite(curvature_sq)):
        raise ValueError("coefficients must be finite")
    cos_alpha = _end_slopes(eta, h, g_vec)
    diag, rhs = _rows(curvature_sq, np.zeros(curvature_sq.shape), cos_alpha, h)
    sigma = np.zeros(curvature_sq.shape)
    sigma[..., 1:] = _solve_chain(diag, rhs, h)
    return sigma, cos_alpha


def tension_for_state(state: ArcState, g: GravitySpec) -> TensionProfile:
    """Tension of a sampled curve: flow_tensions of its positions.

    Curvature at the two boundary nodes uses one-sided second differences
    so that every node row of the solve carries coefficient data.
    """
    sigma, _ = flow_tensions(state.positions, state.grid.h, g.direction)
    return TensionProfile(grid=state.grid, values=sigma)


def counterexample_tension(
    eps: float, alpha0: float, n_cells: int = 2000
) -> tuple[float, float]:
    """Geodesic tension at the pinned end for the helical arc family.

    A helix of radius eps*sin(alpha0) winding at pitch angle alpha0, paired
    with the unit-speed transverse velocity field obtained by trading
    sin(alpha0) and cos(alpha0), has constant coefficients: the squared
    curvature is sin(alpha0)^2/eps^2 and the squared velocity derivative is
    cos(alpha0)^2 + sin(alpha0)^2 = 1 identically.  The solve returns
    (sigma(1), eps^2/sin(alpha0)^2); the first never exceeds the second,
    and their ratio tends to 1 as eps -> 0.

    eps must lie in the map's domain (regmap.check_eps), and alpha0 in (0,
    pi) with the bound finite at every such eps; ValueError otherwise.
    """
    check_eps(eps)
    sin_sq = np.sin(alpha0) ** 2 if 0.0 < alpha0 < np.pi else 0.0
    if not (sin_sq > 0.0 and math.isfinite(EPS_MAX ** 2 / float(sin_sq))):
        raise ValueError(f"alpha0 = {alpha0:g} must lie in (0, pi) with "
                         f"eps^2/sin(alpha0)^2 finite at eps = {EPS_MAX:g}")
    eps_sq = float(eps) ** 2
    grid = Grid(n_cells)
    a_sq = sin_sq / eps_sq
    if a_sq * grid.h ** 2 > 1e4:
        raise UnderResolvedError(
            f"stiffness {a_sq:.3g} is unresolved at h = {grid.h:.3g}; "
            "increase n_cells or eps"
        )
    problem = GeodesicTensionProblem(
        grid=grid,
        curvature_sq=np.full(grid.n_nodes, a_sq),
        speed_sq=np.ones(grid.n_nodes),
        neumann_value=0.0,
    )
    profile = solve_tension(problem)
    bound = eps_sq / sin_sq
    return profile.at_end, float(bound)
