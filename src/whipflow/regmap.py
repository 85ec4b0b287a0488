"""The epsilon-regularized constitutive map and its calculus.

The inextensibility constraint is relaxed by an invertible radial map

    forward(k) = eps*k + k / sqrt(eps + |k|^2)

between the tension-flux vector ``k`` and the tangent vector ``tau``.  Its
inverse turns the constrained evolution into a uniformly parabolic problem:
the flux entering the PDE is ``invert(d_s eta)``.  This module evaluates the
map, its inverse, the Jacobian of the inverse with its two closed-form
eigenvalue bounds, and the convex scalar potential whose gradient is the
inverse map (which is what makes the regularized problem an L2 gradient
flow).

Everything is vectorized over leading axes: inputs of shape ``(..., d)``
produce outputs with matching leading shape.

Each tangent field is inverted once.  The radial inversion is the one
iterative kernel on the hot path, and every public method reaches it
through a one-entry memo keyed on the exact values of the last tangent
field: the stepper's final evaluation, the energy report, the discrete
energy and the next step's first evaluation all see the same field, so
only the first of them pays for the inversion.  A hit returns the very
arrays a fresh inversion would, so results are bitwise unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InversionError, NumericDomainError


@dataclass(frozen=True)
class RegParams:
    """Regularization strength and inversion tolerances."""

    eps: float
    newton_tol: float = 1e-12
    newton_max_iter: int = 100

    def __post_init__(self):
        if not (self.eps > 0.0 and np.isfinite(self.eps)):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not (0.0 < self.newton_tol <= 1e-6):
            raise ValueError(f"newton_tol must lie in (0, 1e-6], got {self.newton_tol}")
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be at least 1")


def _check_finite(values: np.ndarray, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise NumericDomainError(f"{name} contains non-finite entries")
    return values


class RegularizedMap:
    """Radial constitutive map at fixed regularization strength and ambient
    dimension (2 or 3; the helical counterexample needs 3)."""

    def __init__(self, params: RegParams, dim: int = 2):
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        self.params = params
        self.dim = dim
        # (tau copy, r, rho) of the last inversion, see _flux
        self._memo = None

    @property
    def eps(self) -> float:
        return self.params.eps

    # -- scalar radial profile -------------------------------------------

    def _radial(self, rho: np.ndarray) -> np.ndarray:
        """|forward| as a function of |k|: f(r) = eps*r + r/sqrt(eps+r^2)."""
        eps = self.eps
        return eps * rho + rho / np.sqrt(eps + rho * rho)

    def _radial_slope(self, rho: np.ndarray) -> np.ndarray:
        """f'(r) = eps + eps*(eps+r^2)^(-3/2); positive, so f is strictly
        increasing, and f is concave on r >= 0."""
        eps = self.eps
        return eps + eps * (eps + rho * rho) ** -1.5

    def _invert_radial(self, r: np.ndarray) -> np.ndarray:
        """Solve f(rho) = r for rho >= 0, elementwise.

        f is increasing and concave, so Newton started at any point with
        f(rho0) <= r converges monotonically from below.  The starting
        point r/(eps + eps^(-1/2)) is such a point since
        f(rho) <= (eps + eps^(-1/2)) * rho.  A bracket [lo, hi] with
        lo = rho0 and hi = r/eps (eps*rho <= f(rho) puts the root below
        r/eps) is maintained as a bisection safeguard.
        """
        eps = self.eps
        tol = self.params.newton_tol
        r = np.asarray(r, dtype=float)
        lo = r / (eps + eps ** -0.5)
        hi = r / eps
        rho = lo.copy() if lo.ndim else np.asarray(lo)
        target = tol * (1.0 + r)
        resid = self._radial(rho) - r
        for _ in range(self.params.newton_max_iter):
            active = np.abs(resid) > target
            if not active.any():
                return self._polish(rho, r)
            cand = rho - resid / self._radial_slope(rho)
            outside = active & ((cand <= lo) | (cand >= hi))
            cand = np.where(outside, 0.5 * (lo + hi), cand)
            rho = np.where(active, cand, rho)
            resid = self._radial(rho) - r
            lo = np.where(active & (resid <= 0.0), rho, lo)
            hi = np.where(active & (resid > 0.0), rho, hi)
        if np.any(np.abs(resid) > target):
            raise InversionError(
                "radial inversion did not converge within "
                f"{self.params.newton_max_iter} iterations"
            )
        return self._polish(rho, r)

    def _polish(self, rho, r):
        # two unconditional Newton updates drive the root to its floating
        # point fixed point (quadratic convergence from an already-converged
        # iterate); without this the flux noise floor is set by newton_tol
        # divided by the radial slope, which ruins implicit-solver residuals
        # at small eps
        for _ in range(2):
            rho = rho - (self._radial(rho) - r) / self._radial_slope(rho)
            rho = np.maximum(rho, 0.0)
        return rho

    # -- vector operations -----------------------------------------------

    def _check_vec(self, v, name):
        v = _check_finite(v, name)
        if v.shape[-1] != self.dim:
            raise NumericDomainError(
                f"{name} has dimension {v.shape[-1]}, map expects {self.dim}"
            )
        return v

    def _flux(self, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (invert(tau), |invert(tau)|) from one radial inversion.

        The last (tau, r, rho) is memoized; a hit needs the same shape and
        equal values.  Equal values have equal norms bitwise (a signed zero
        squares to +0), so a hit returns what a fresh inversion would.
        kappa is rebuilt from the caller's tau, keeping its zeros' signs.
        """
        tau = self._check_vec(tau, "tau")
        memo = self._memo
        if memo is not None and memo[0].shape == tau.shape \
                and np.array_equal(memo[0], tau):
            _, r, rho = memo
        else:
            r = np.sqrt(np.sum(tau * tau, axis=-1))
            rho = self._invert_radial(r)
            self._memo = (tau.copy(), r, rho)
        scale = np.where(r > 0.0, rho / np.where(r > 0.0, r, 1.0), 0.0)
        return tau * scale[..., None], rho

    def forward(self, kappa: np.ndarray) -> np.ndarray:
        """Map a flux vector to a tangent vector; output is parallel to the
        input."""
        kappa = self._check_vec(kappa, "kappa")
        eps = self.eps
        norm_sq = np.sum(kappa * kappa, axis=-1, keepdims=True)
        return eps * kappa + kappa / np.sqrt(eps + norm_sq)

    def invert(self, tau: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward`: recover the flux vector from a tangent
        vector.  Radial, with invert(0) = 0."""
        kappa, _ = self._flux(tau)
        return kappa

    def inverse_jacobian(self, tau: np.ndarray) -> np.ndarray:
        """Jacobian of :meth:`invert`, shape ``(..., d, d)``.

        Computed analytically through the inverse-function theorem: with
        k = invert(tau) and c1 = eps + (eps+|k|^2)^(-1/2),
        c3 = (eps+|k|^2)^(-3/2), the forward Jacobian is c1*I - c3*k k^T
        and its inverse follows from Sherman-Morrison.  Symmetric positive
        definite for every tau.
        """
        tau = self._check_vec(tau, "tau")
        kappa = self.invert(tau)
        eps = self.eps
        rho_sq = np.sum(kappa * kappa, axis=-1)
        w = (eps + rho_sq) ** -0.5
        c1 = eps + w
        c3 = w ** 3
        outer = kappa[..., :, None] * kappa[..., None, :]
        eye = np.eye(self.dim)
        radial_gain = c3 / (c1 * (c1 - c3 * rho_sq))
        return eye / c1[..., None, None] + outer * radial_gain[..., None, None]

    def spectral_bounds(self, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form eigenvalue bounds (lo, hi) of the inverse Jacobian.

        lo is the transverse eigenvalue 1/(eps + (eps+rho^2)^(-1/2)) and hi
        the radial one eps^(-1)/(1 + (eps+rho^2)^(-3/2)), rho = |invert(tau)|.
        Both positive, lo <= hi.
        """
        tau = self._check_vec(tau, "tau")
        kappa = self.invert(tau)
        eps = self.eps
        rho_sq = np.sum(kappa * kappa, axis=-1)
        w = (eps + rho_sq) ** -0.5
        lo = 1.0 / (eps + w)
        hi = (1.0 / eps) / (1.0 + w ** 3)
        return lo, hi

    def potential(self, tau: np.ndarray) -> np.ndarray:
        """Convex scalar potential of the inverse map:

            eps * (|invert(tau)|^2 / 2 - 1/sqrt(eps + |invert(tau)|^2))

        Its gradient with respect to tau is invert(tau), and it is bounded
        below by -sqrt(eps) (attained at tau = 0).
        """
        tau = self._check_vec(tau, "tau")
        kappa = self.invert(tau)
        eps = self.eps
        rho_sq = np.sum(kappa * kappa, axis=-1)
        return eps * (0.5 * rho_sq - (eps + rho_sq) ** -0.5)

    def local_calculus(
        self, tau: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (invert(tau), inverse_jacobian(tau), potential(tau)) from a
        single radial inversion.  Used by the implicit stepper, where all
        three are needed at the same points."""
        kappa, rho = self._flux(tau)
        eps = self.eps
        rho_sq = rho * rho
        w = (eps + rho_sq) ** -0.5
        c1 = eps + w
        c3 = w ** 3
        outer = kappa[..., :, None] * kappa[..., None, :]
        radial_gain = c3 / (c1 * (c1 - c3 * rho_sq))
        jac = np.eye(self.dim) / c1[..., None, None] + outer * radial_gain[..., None, None]
        pot = eps * (0.5 * rho_sq - w)
        return kappa, jac, pot
