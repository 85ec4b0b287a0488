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

The radial inversion solves f(rho) = r for the radial profile
f(rho) = eps*rho + rho/sqrt(eps + rho^2).  Each map builds a start table
once, from eps alone: f sampled at rho = sqrt(eps)*x for x = 0 and 256
log-spaced x in [1e-3, 1e4*eps^(-3/2)].  Reading the table backwards starts
every entry near its root; above the table (r - 1)/eps, a lower bound
since f(rho) <= eps*rho + 1, is already accurate.  The start is clamped
into the bracket that always holds the root, and from there Newton stops
once |f(rho) - r| <= INVERT_TOL*(1 + r) in every entry.  That takes at most
three updates for eps in [1e-4, 1], plus two polish updates; each update
costs one square root, and InversionError is raised if INVERT_MAX_UPDATES
updates do not suffice.  The start depends on r and eps only, never on
earlier calls, so an inversion is a pure function of its input.
"""

from __future__ import annotations

import numpy as np

from .errors import InversionError, NumericDomainError


# stopping tolerance and update cap of the radial inversion
INVERT_TOL = 1e-12
INVERT_MAX_UPDATES = 100


def _check_finite(values: np.ndarray, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise NumericDomainError(f"{name} contains non-finite entries")
    return values


class RegularizedMap:
    """Radial constitutive map at fixed regularization strength and ambient
    dimension (2 or 3; the helical counterexample needs 3)."""

    def __init__(self, eps: float, dim: int = 2):
        if not (eps > 0.0 and np.isfinite(eps)):
            raise ValueError(f"eps must be positive and finite, got {eps}")
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        self.eps = eps
        self.dim = dim
        self._eye = np.eye(dim)
        # (tau copy, r, rho) of the last inversion, see _flux
        self._memo = None
        # start table of the radial inversion: f sampled at rho = sqrt(eps)*x
        x = np.concatenate(([0.0], np.geomspace(1e-3, 1e4 * eps ** -1.5, 256)))
        self._rho_tab = np.sqrt(eps) * x
        self._f_tab = self._radial(self._rho_tab)
        # the root of f(rho) = r lies in [r/_slope_hi, r/eps], see _invert_radial
        self._slope_hi = eps + eps ** -0.5

    # -- scalar radial profile -------------------------------------------

    def _radial(self, rho: np.ndarray) -> np.ndarray:
        """|forward| as a function of |k|: f(r) = eps*r + r/sqrt(eps+r^2).

        f'(r) = eps*(1 + (eps+r^2)^(-3/2)) is positive, so f is strictly
        increasing, and f is concave on r >= 0."""
        eps = self.eps
        return eps * rho + rho / np.sqrt(eps + rho * rho)

    def _invert_radial(self, r: np.ndarray) -> np.ndarray:
        """Solve f(rho) = r for rho >= 0, elementwise.

        The start is the start table read backwards, or (r - 1)/eps above
        it, clamped into the bracket [lo, hi] = [r/(eps + eps^(-1/2)), r/eps]
        (eps*rho <= f(rho) <= (eps + eps^(-1/2))*rho puts the root there).
        Newton then updates until |f(rho) - r| <= INVERT_TOL*(1 + r) in every
        entry, which takes at most three updates for eps in [1e-4, 1].  Each
        evaluation tightens the bracket, and an update that leaves it is
        replaced by bisection.  Raises InversionError when INVERT_MAX_UPDATES
        updates do not suffice.
        """
        eps = self.eps
        r = np.asarray(r, dtype=float)
        lo = r / self._slope_hi
        hi = r / eps
        rho = np.where(r > self._f_tab[-1], (r - 1.0) / eps,
                       np.interp(r, self._f_tab, self._rho_tab))
        rho = np.minimum(np.maximum(rho, lo), hi)
        target = INVERT_TOL * (1.0 + r)
        for _ in range(INVERT_MAX_UPDATES):
            resid, step = self._newton_step(rho, r)
            if not np.any(np.abs(resid) > target):
                break
            # converged entries take a null step, so the bracket is tested
            # strictly: a step onto its own end is no reason to bisect
            lo = np.where(resid <= 0.0, rho, lo)
            hi = np.where(resid > 0.0, rho, hi)
            rho = rho - step
            outside = (rho < lo) | (rho > hi)
            if outside.any():
                rho = np.where(outside, 0.5 * (lo + hi), rho)
        else:
            resid, step = self._newton_step(rho, r)
            if np.any(np.abs(resid) > target):
                raise InversionError(
                    "radial inversion did not converge within "
                    f"{INVERT_MAX_UPDATES} iterations"
                )
        # two unconditional updates drive the root to its floating point
        # fixed point (quadratic convergence from an already-converged
        # iterate); without them the flux noise floor is set by INVERT_TOL
        # divided by the radial slope, which ruins implicit-solver
        # residuals at small eps
        rho = np.maximum(rho - step, 0.0)
        return np.maximum(rho - self._newton_step(rho, r)[1], 0.0)

    def _newton_step(self, rho, r):
        """(f(rho) - r, the Newton update (f(rho) - r)/f'(rho)) from one
        square root.  The residual is bitwise _radial(rho) - r."""
        eps = self.eps
        q = np.sqrt(eps + rho * rho)
        resid = eps * rho + rho / q - r
        return resid, resid / (eps + eps / (q * q * q))

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
        return self._jacobian(*self._flux(tau))[0]

    def _jacobian(self, kappa, rho):
        """(inverse_jacobian, w) at kappa with |kappa| = rho, where
        w = (eps + rho^2)^(-1/2)."""
        eps = self.eps
        rho_sq = rho * rho
        w = (eps + rho_sq) ** -0.5
        c1 = eps + w
        c3 = w ** 3
        outer = kappa[..., :, None] * kappa[..., None, :]
        radial_gain = c3 / (c1 * (c1 - c3 * rho_sq))
        jac = self._eye / c1[..., None, None] + outer * radial_gain[..., None, None]
        return jac, w

    def spectral_bounds(self, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form eigenvalue bounds (lo, hi) of the inverse Jacobian.

        lo is the transverse eigenvalue 1/(eps + (eps+rho^2)^(-1/2)) and hi
        the radial one eps^(-1)/(1 + (eps+rho^2)^(-3/2)), rho = |invert(tau)|.
        Both positive, lo <= hi.
        """
        _, rho = self._flux(tau)
        eps = self.eps
        w = (eps + rho * rho) ** -0.5
        return 1.0 / (eps + w), (1.0 / eps) / (1.0 + w ** 3)

    def potential(self, tau: np.ndarray) -> np.ndarray:
        """Convex scalar potential of the inverse map:

            eps * (|invert(tau)|^2 / 2 - 1/sqrt(eps + |invert(tau)|^2))

        Its gradient with respect to tau is invert(tau), and it is bounded
        below by -sqrt(eps) (attained at tau = 0).
        """
        _, rho = self._flux(tau)
        eps = self.eps
        rho_sq = rho * rho
        return eps * (0.5 * rho_sq - (eps + rho_sq) ** -0.5)

    def local_calculus(
        self, tau: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (invert(tau), inverse_jacobian(tau), potential(tau)) from a
        single radial inversion.  Used by the implicit stepper, where all
        three are needed at the same points."""
        kappa, rho = self._flux(tau)
        jac, w = self._jacobian(kappa, rho)
        return kappa, jac, self.eps * (0.5 * (rho * rho) - w)
