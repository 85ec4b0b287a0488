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
produce outputs with matching leading shape.  A single vector, of shape
``(d,)``, is evaluated as a one-row field, so each reader gives it bitwise
the values of its row in any field.

Each reader checks its tangent field and inverts its radial profile, the
norm |tau| taken as ``grid.row_dot``'s component sum.  The Jacobian of
the inverse is inv_c1*I + gain*k k^T: ``local_calculus`` returns it in
that radial form, two values per point, for the stepper to write its
Newton band from, and ``inverse_jacobian`` alone expands it into the
dense (..., d, d) array, entry by entry.  The map keeps nothing between
calls: what a reader returns depends on eps, the dimension and its input
alone.  The stepper hands each accepted state's flux and potential to
its consumers, so none of them inverts that state again.

The map's domain: eps in [EPS_MIN, EPS_MAX] = [1e-14, 4.6e4] (check_eps,
else ValueError), and every entry x of a vector it reads with |x| <=
VEC_MAX = 1e80 (else NumericDomainError; NaN and inf fail too, an empty
field passes).  On it every value below is finite; rho^3 stays below
about 1e283.

The radial inversion solves f(rho) = r for the radial profile
f(rho) = eps*rho + rho/sqrt(eps + rho^2).  Each map builds a start table
once, from eps alone: f sampled at rho = sqrt(eps)*x for x = 0 and 256
log-spaced x in [1e-3, 1e4*eps^(-3/2)], finite and strictly increasing
for every eps in the domain.  Reading the table backwards starts every
entry near its root; above the table (r - 1)/eps, a lower bound since
f(rho) <= eps*rho + 1, is already accurate.  From that start the
kernel applies exactly INVERT_UPDATES = 5 Newton updates, each clamped at
rho >= 0, with no bracket and no early exit.  Three updates reach
|f(rho) - r| <= INVERT_TOL*(1 + r) for every eps in the domain and every
r from 0 to sqrt(3)*VEC_MAX; that is checked once, on the iterate after
them, and InversionError is raised exactly when that entrywise test
fails.
The last two updates polish the root to its floating point fixed point.
Each update costs one square root, so an inversion costs the same work on
every call, and it depends on r and eps only, never on earlier calls.
The updates work in place and take eps and 0 as 0-d arrays, never as
Python floats, which numpy dispatches more slowly; every value keeps the
float order of the plain expressions (``tests/test_regmap.py`` holds them
as the reference).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InversionError, NumericDomainError
from .grid import _ZERO, row_dot


# residual tolerance and number of Newton updates of the radial inversion
INVERT_TOL = 1e-12
INVERT_UPDATES = 5

# the map's domain (see the module docstring)
EPS_MIN = 1e-14
EPS_MAX = 4.6e4
VEC_MAX = 1e80

# 1 and 1/2 as 0-d arrays, like grid._ZERO: numpy takes a Python float
# operand by a slower path, to the same result
_ONE = np.ones(())
_ONE.flags.writeable = False
_HALF = np.array(0.5)
_HALF.flags.writeable = False


def _row_of_field(reader):
    """Evaluate a single vector (a 1-D input) as a one-row field and return
    that row's values, so that they are bitwise the vector's row of any
    field: on a lone scalar numpy computes a power by the C library's
    ``pow``, which can round differently from its array loop.  Shapes and
    types are those of the single vector's evaluation."""
    @functools.wraps(reader)
    def read(self, tau):
        if np.ndim(tau) != 1:
            return reader(self, tau)
        return _first_row(reader(self, np.asarray(tau)[None]))
    return read


def _first_row(value):
    """The first row of an array, or of each array in nested tuples."""
    if isinstance(value, tuple):
        return tuple(_first_row(part) for part in value)
    return value[0]


def check_eps(eps: float) -> None:
    """Raise ValueError unless EPS_MIN <= eps <= EPS_MAX (NaN fails)."""
    if not EPS_MIN <= eps <= EPS_MAX:
        raise ValueError(f"eps = {eps:g} is outside the map's domain "
                         f"[{EPS_MIN:g}, {EPS_MAX:g}]")


class RegularizedMap:
    """Radial constitutive map at fixed regularization strength and ambient
    dimension (2 or 3; the helical counterexample needs 3)."""

    def __init__(self, eps: float, dim: int = 2):
        check_eps(eps)
        # an integer: a float 2.0 would pass ``in (2, 3)`` and then fail
        # as a shape in inverse_jacobian
        if not (isinstance(dim, (int, np.integer)) and dim in (2, 3)):
            raise ValueError(f"dim must be the integer 2 or 3, got {dim!r}")
        self.eps = eps
        self.dim = int(dim)
        # eps as a 0-d array, like _ZERO; a Python float operand is
        # promoted to this very float64 value
        self._eps = np.array(eps, dtype=float)
        # start table of the radial inversion: f sampled at rho = sqrt(eps)*x
        x = np.concatenate(
            ([0.0], np.geomspace(1e-3, 1e4 * np.float64(eps) ** -1.5, 256)))
        self._rho_tab = np.sqrt(eps) * x
        self._f_tab = self._radial(self._rho_tab)

    # -- scalar radial profile -------------------------------------------

    def _radial(self, rho: np.ndarray) -> np.ndarray:
        """|forward| as a function of |k|: f(r) = eps*r + r/sqrt(eps+r^2).

        f'(r) = eps*(1 + (eps+r^2)^(-3/2)) is positive, so f is strictly
        increasing, and f is concave on r >= 0."""
        eps = self.eps
        return eps * rho + rho / np.sqrt(eps + rho * rho)

    def _invert_radial(self, r: np.ndarray) -> np.ndarray:
        """Solve f(rho) = r for rho >= 0, elementwise, given r >= 0.

        The start is the start table read backwards, or (r - 1)/eps above
        it (built only when some r lies there).  Exactly INVERT_UPDATES
        Newton updates follow, each clamped at rho >= 0; there is no
        bracket and no early exit.  The iterate before the last two
        updates must meet |f(rho) - r| <= INVERT_TOL*(1 + r) in every
        entry, else InversionError is raised (NaN fails); from the table
        start three updates do that on the map's domain.  The last two
        updates drive the root to its floating point fixed point
        (quadratic convergence from an already-converged iterate); without
        them the flux noise floor is set by INVERT_TOL divided by the
        radial slope, which ruins implicit-solver residuals at small eps.
        """
        r = np.asarray(r, dtype=float)
        if r.ndim == 0:  # the updates work in place, on arrays
            return self._invert_radial(r.reshape(1))[0]
        rho = np.interp(r, self._f_tab, self._rho_tab)
        top = self._f_tab[-1]
        if np.maximum.reduce(r, axis=None, initial=0.0) > top:
            rho = np.where(r > top, (r - 1.0) / self._eps, rho)
        for k in range(INVERT_UPDATES):
            resid, step = self._newton_step(rho, r)
            # every |resid| <= INVERT_TOL passes the entrywise test, which
            # is made only when the largest |resid| exceeds INVERT_TOL
            if k == INVERT_UPDATES - 2 and not (
                    np.maximum.reduce(np.abs(resid), axis=None, initial=0.0)
                    <= INVERT_TOL
                    or (np.abs(resid) <= INVERT_TOL * (1.0 + r)).all()):
                raise InversionError(
                    "radial inversion did not converge within "
                    f"{INVERT_UPDATES - 2} updates"
                )
            rho -= step
            np.maximum(rho, _ZERO, out=rho)
        return rho

    def _newton_step(self, rho, r):
        """(f(rho) - r, the Newton update (f(rho) - r)/f'(rho)) from one
        square root.  The residual is bitwise _radial(rho) - r; each call
        returns a new residual array."""
        eps = self._eps
        q = rho * rho
        q += eps
        np.sqrt(q, out=q)
        resid = eps * rho
        slope = np.divide(rho, q)
        resid += slope
        resid -= r
        np.multiply(q, q, out=slope)
        slope *= q
        np.divide(eps, slope, out=slope)
        slope += eps
        return resid, np.divide(resid, slope, out=slope)

    # -- vector operations -----------------------------------------------

    def _check_vec(self, v, name):
        v = np.asarray(v, dtype=float)
        # NaN propagates through the maximum; an empty field passes
        if not np.maximum.reduce(np.abs(v), axis=None, initial=0.0) <= VEC_MAX:
            raise NumericDomainError(
                f"{name} has non-finite entries or entries beyond {VEC_MAX:g}")
        if v.ndim == 0 or v.shape[-1] != self.dim:
            raise NumericDomainError(f"{name} of shape {v.shape} is not a "
                                     f"field of {self.dim}-vectors")
        return v

    def _field(self, tau):
        """(tau, scale, rho2, w) of a tangent field: tau as a checked float
        array, the flux scale rho/|tau| (0 at tau = 0), rho2 = rho^2 and
        w = (eps + rho^2)^(-1/2), where rho = |invert(tau)|.  Readers
        build kappa = tau*scale, keeping the signs of tau's zeros."""
        tau = self._check_vec(tau, "tau")
        r = np.sqrt(row_dot(tau, tau))
        rho = self._invert_radial(r)
        scale = np.divide(rho, r, out=np.zeros(r.shape), where=r > _ZERO)
        rho2 = rho * rho
        return tau, scale, rho2, (rho2 + self._eps) ** -0.5

    def forward(self, kappa: np.ndarray) -> np.ndarray:
        """Map a flux vector to a tangent vector; output is parallel to the
        input."""
        kappa = self._check_vec(kappa, "kappa")
        eps = self.eps
        norm_sq = np.sum(kappa * kappa, axis=-1, keepdims=True)
        return eps * kappa + kappa / np.sqrt(eps + norm_sq)

    @_row_of_field
    def invert(self, tau: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward`: recover the flux vector from a tangent
        vector.  Radial, with invert(0) = 0."""
        tau, scale = self._field(tau)[:2]
        return tau * scale[..., None]

    @_row_of_field
    def inverse_jacobian(self, tau: np.ndarray) -> np.ndarray:
        """Jacobian of :meth:`invert`, shape ``(..., d, d)``.

        Computed analytically through the inverse-function theorem: with
        k = invert(tau) and c1 = eps + (eps+|k|^2)^(-1/2),
        c3 = (eps+|k|^2)^(-3/2), the forward Jacobian is c1*I - c3*k k^T
        and its inverse follows from Sherman-Morrison.  Symmetric positive
        definite for every tau.
        """
        tau, scale, rho2, w = self._field(tau)
        return self._jacobian(tau * scale[..., None],
                              *self._radial_form(rho2, w))

    def _radial_form(self, rho2, w):
        """(inv_c1, gain) at |kappa|^2 = rho2 and w = (eps + rho2)^(-1/2):
        the inverse Jacobian at kappa is inv_c1*I + gain*kappa kappa^T, with
        c1 = eps + w, c3 = w^3, inv_c1 = 1/c1 and the radial gain
        c3/(c1 (c1 - c3 rho2))."""
        c1 = w + self._eps
        c3 = w ** 3
        return _ONE / c1, c3 / (c1 * (c1 - c3 * rho2))

    def _jacobian(self, kappa, inv_c1, gain):
        """The radial form (inv_c1, gain) at kappa expanded into the dense
        inverse Jacobian, entry by entry: entry (p, q) is inv_c1*[p == q] +
        (k_p k_q)*gain."""
        jac = np.empty((*np.shape(inv_c1), self.dim, self.dim))
        for p in range(self.dim):
            k_p = kappa[..., p]
            jac[..., p, p] = inv_c1 + (k_p * k_p) * gain
            for q in range(p):
                # + 0.0 is the off-diagonal 0.0/c1 (c1 > 0): a -0 turns +0
                off = (k_p * kappa[..., q]) * gain + 0.0
                jac[..., p, q] = jac[..., q, p] = off
        return jac

    @_row_of_field
    def spectral_bounds(self, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form eigenvalue bounds (lo, hi) of the inverse Jacobian.

        lo is the transverse eigenvalue 1/(eps + w) and hi the radial one
        eps^(-1)/(1 + w^3), with w = (eps+rho^2)^(-1/2),
        rho = |invert(tau)|.  Both positive, lo <= hi.
        """
        w = self._field(tau)[3]
        return 1.0 / (self.eps + w), (1.0 / self.eps) / (1.0 + w ** 3)

    @_row_of_field
    def potential(self, tau: np.ndarray) -> np.ndarray:
        """Convex scalar potential of the inverse map:

            eps * (|invert(tau)|^2 / 2 - 1/sqrt(eps + |invert(tau)|^2))

        Its gradient with respect to tau is invert(tau), and it is bounded
        below by -sqrt(eps) (attained at tau = 0).
        """
        _, _, rho2, w = self._field(tau)
        return self._eps * (_HALF * rho2 - w)

    @_row_of_field
    def local_calculus(
        self, tau: np.ndarray
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], np.ndarray]:
        """Return (invert(tau), (inv_c1, gain), potential(tau)) from one
        inversion, where inverse_jacobian(tau) = inv_c1*I + gain*kappa
        kappa^T at kappa = invert(tau) (``_jacobian`` expands it).  Used by
        the implicit stepper, which writes its Newton band from that radial
        form without building the dense Jacobian."""
        tau, scale, rho2, w = self._field(tau)
        return (tau * scale[..., None], self._radial_form(rho2, w),
                self._eps * (_HALF * rho2 - w))
