"""The paper's checks that no run computes (time reversal, the relative
energy identity, the tension tail integrals and the compatibility
predicate), over plain lists of (state, tension) pairs.  The tests import
them; pytest does not collect this module."""

import numpy as np

from whipflow import ArcState, TensionProfile, potential_energy
from whipflow.diagnostics import EQUILIBRIUM_ENERGY
from whipflow.errors import ShapeError
from whipflow.tension import end_cos_alpha, second_differences


def time_reversed(pairs):
    """Reverse time and negate the tension: a forward run computed under
    -g becomes a solution backwards in time under g.  Applying it twice
    restores the input bitwise."""
    return [
        (ArcState(grid=s.grid, positions=s.positions, time=-s.time),
         TensionProfile(grid=p.grid, values=-p.values))
        for s, p in reversed(pairs)
    ]


def relative_energy_identity(state, g):
    """(lhs, rhs, |lhs - rhs|): lhs is the relative energy in midpoint
    quadrature, rhs the expression
    (1/2) int s |d_s(eta - eta_down)|^2 - (1/2) int s (|d_s eta|^2 - 1).
    The identity is exact for the continuum, so the gap is pure rounding
    when both sides share one quadrature."""
    grid = state.grid
    u = state.tangents
    s_mid = grid.midpoints
    g_vec = g.direction
    lhs = grid.quad_midpoint(s_mid * (u @ g_vec)) - EQUILIBRIUM_ENERGY
    diff = u + g_vec  # d_s eta - d_s eta_down, with eta_down = (1-s) g
    rhs = 0.5 * grid.quad_midpoint(s_mid * np.sum(diff * diff, axis=1)) \
        - 0.5 * grid.quad_midpoint(s_mid * (np.sum(u * u, axis=1) - 1.0))
    return float(lhs), float(rhs), float(abs(lhs - rhs))


def sigma_tails(pairs, g, t_grid, c0):
    """(tail, bound) for each t of ``t_grid``: the tail integral of the
    weighted tension distance int (sigma - s)^2 / s ds from t on, against
    the decay bound (4 c0)^(-3/2) E_rel(0)^(1/2) exp(-c0 t / 2).

    The infinite tail is truncated at the last state, which is only
    justified near equilibrium: ValueError unless the run ends with E_rel
    below 1e-3 of its initial value.
    """
    first, last = pairs[0][0], pairs[-1][0]
    e_rel0 = potential_energy(first, g) - EQUILIBRIUM_ENERGY
    e_rel_end = potential_energy(last, g) - EQUILIBRIUM_ENERGY
    # the absolute floor keeps exact-equilibrium runs (pure rounding in
    # both energies) admissible
    if not (e_rel_end <= max(1e-3 * e_rel0, 1e-12)):
        raise ValueError(
            "horizon insufficient for tail truncation: "
            f"E_rel(end) = {e_rel_end:.3g} vs E_rel(0) = {e_rel0:.3g}"
        )
    grid = first.grid
    s_mid = grid.midpoints
    times = np.array([s.time for s, _ in pairs])
    weights = np.empty(len(times))
    for k, (_, tension) in enumerate(pairs):
        weights[k] = grid.quad_midpoint(
            (tension.at_midpoints - s_mid) ** 2 / s_mid)
    tails = []
    for t in t_grid:
        mask = times[:-1] >= t
        tail = float(np.sum((times[1:] - times[:-1])[mask] * weights[:-1][mask]))
        bound = (4.0 * c0) ** -1.5 * np.sqrt(max(e_rel0, 0.0)) * np.exp(-0.5 * c0 * t)
        tails.append((tail, float(bound)))
    return tails


def compatibility(state, g):
    """(holds, lhs, rhs) of the strict inequality
    |cos(alpha)| |eta''(1)| < 1 - |cos(alpha)|.  When it holds, no
    time-regular solution can balance gravity at the pinned end at the
    initial instant; the equilibria give lhs = rhs = 0, where it fails."""
    if state.grid.n_nodes < 3:
        raise ShapeError("need at least 3 nodes for the end curvature")
    cos_alpha = end_cos_alpha(state, g)
    second = second_differences(state.positions, state.grid.h)
    curvature_end = float(np.linalg.norm(second[-1]))
    lhs = abs(cos_alpha) * curvature_end
    rhs = 1.0 - abs(cos_alpha)
    return lhs < rhs, lhs, rhs
