"""Initial-data constructors, mollification, the branching pair and the
eps-equilibrium.

Every builder produces a pinned state whose discrete tangents are unit
length or shorter (chords of a unit-speed curve never exceed the arc), so
the admissibility bound on the stretch holds before mollification by
construction.  Mollification smooths the tangent field and tapers it to
zero near both ends, which is the discrete counterpart of approximating by
smooth compactly supported data: zero slope at the free end, identically
pinned tail at the fixed end.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .diagnostics import RealizedResidual, ResidualAccumulator
from .diagnostics import constitutive_tension  # noqa: F401  (spans.WRAPS)
from .diagnostics import generalized_residual  # noqa: F401  (spans.WRAPS)
from .errors import ShapeError, UnderResolvedError
from .flow import TIME_TOL, ArcState, GravitySpec, StepperConfig, evolve
from .grid import Grid
from .regmap import RegularizedMap
from .tension import TensionProfile

KINDS = (
    "vertical_down",
    "vertical_up",
    "straight_angle",
    "quarter_circle",
    "helix",
    "random_lipschitz",
)

# the fewest cells per helix turn build accepts: below that the chords skip
# over the turns and the discrete curve is no longer a helix
HELIX_CELLS_PER_TURN = 8


@dataclass(frozen=True)
class ScenarioSpec:
    """Which curve to build.

    ``alpha0`` is the pin angle, cos(alpha0) = -g . eta'(1): the direction
    of the straight scenario and the pitch angle of the helix.
    ``geom_eps`` is the helix scale (radius geom_eps*sin(alpha0)) and
    ``seed`` drives the random unit-tangent field.  How the curve is
    smoothed is no part of it: :func:`mollify` takes its scales from the
    grid.
    """

    kind: str
    geom_eps: float = 0.1
    alpha0: float = np.pi / 2
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}; choose from {KINDS}")
        if not (self.geom_eps > 0.0):
            raise ValueError(f"geom_eps must be positive, got {self.geom_eps}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def _perp_frame(g_vec: np.ndarray) -> tuple[np.ndarray, ...]:
    """Deterministic orthonormal complement of the gravity direction."""
    d = g_vec.shape[0]
    if d == 2:
        return (np.array([-g_vec[1], g_vec[0]]),)
    pivot = np.zeros(3)
    pivot[int(np.argmin(np.abs(g_vec)))] = 1.0
    p1 = pivot - np.dot(pivot, g_vec) * g_vec
    p1 /= np.linalg.norm(p1)
    p2 = np.cross(g_vec, p1)
    return p1, p2


def _positions_from_tangents(grid: Grid, tangents: np.ndarray) -> np.ndarray:
    """Integrate a midpoint tangent field from the pinned end, so that the
    last node is exactly the origin."""
    positions = np.zeros((grid.n_nodes, tangents.shape[1]))
    positions[:-1] = -grid.h * np.cumsum(tangents[::-1], axis=0)[::-1]
    return positions


def eps_equilibrium(grid: Grid, rmap: RegularizedMap, g: GravitySpec) -> ArcState:
    """The stationary state of the regularized scheme on ``grid``: the
    state a regularized run settles at, not the constrained hanging string.

    With zero velocity the residual rows force the flux through cell i to
    be -g s_{i+1}; the tangent is its image under the forward map, and the
    positions are summed back from the pinned end.
    """
    flux = -grid.nodes[1:, None] * g.direction
    return ArcState(grid=grid, positions=_positions_from_tangents(
        grid, rmap.forward(flux)))


def build(spec: ScenarioSpec, grid: Grid, g: GravitySpec) -> ArcState:
    """Construct the initial curve of a scenario on a grid.

    A helix whose turns span fewer than HELIX_CELLS_PER_TURN cells raises
    UnderResolvedError."""
    s = grid.nodes
    g_vec = g.direction
    d = g.dim

    if spec.kind == "vertical_down":
        positions = np.outer(1.0 - s, g_vec)
    elif spec.kind == "vertical_up":
        positions = np.outer(s - 1.0, g_vec)
    elif spec.kind == "straight_angle":
        p1 = _perp_frame(g_vec)[0]
        direction = np.cos(spec.alpha0) * g_vec + np.sin(spec.alpha0) * p1
        positions = np.outer(1.0 - s, direction)
    elif spec.kind == "quarter_circle":
        # unit-speed arc, pinned end tangent orthogonal to gravity
        radius = 2.0 / np.pi
        p1 = _perp_frame(g_vec)[0]
        phi = 0.5 * np.pi * (1.0 - s)
        positions = radius * (
            np.outer(np.sin(phi), p1) + np.outer(1.0 - np.cos(phi), g_vec)
        )
    elif spec.kind == "helix":
        if d != 3:
            raise ShapeError("the helix scenario needs ambient dimension 3")
        eps = spec.geom_eps
        if 2.0 * np.pi * eps < HELIX_CELLS_PER_TURN * grid.h:
            raise UnderResolvedError(
                f"a helix turn of length 2 pi geom_eps = {2 * np.pi * eps:.3g} "
                f"spans fewer than {HELIX_CELLS_PER_TURN} cells of "
                f"h = {grid.h:.3g}; increase the cells or geom_eps")
        p1, p2 = _perp_frame(g_vec)
        amp = eps * np.sin(spec.alpha0)
        positions = (
            np.outer(amp * (np.cos(s / eps) - np.cos(1.0 / eps)), p1)
            + np.outer(amp * (np.sin(s / eps) - np.sin(1.0 / eps)), p2)
            + np.outer((1.0 - s) * np.cos(spec.alpha0), g_vec)
        )
    elif spec.kind == "random_lipschitz":
        rng = np.random.default_rng(spec.seed)
        mids = grid.midpoints
        base = rng.normal(size=d)
        field = np.tile(1.5 * base / np.linalg.norm(base), (grid.n_cells, 1))
        for k in range(1, 6):
            scale = 0.5 / k
            field += np.outer(np.cos(k * np.pi * mids), scale * rng.normal(size=d))
            field += np.outer(np.sin(k * np.pi * mids), scale * rng.normal(size=d))
        norms = np.linalg.norm(field, axis=1)
        tangents = field / np.maximum(norms, 1e-12)[:, None]
        excess = np.linalg.norm(tangents, axis=1).max()
        if excess > 1.0:
            tangents = tangents / excess
        positions = _positions_from_tangents(grid, tangents)
    else:  # pragma: no cover - guarded in ScenarioSpec
        raise ValueError(spec.kind)

    return ArcState(grid=grid, positions=positions, time=0.0)


def _smoothstep(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    return x ** 3 * (10.0 + x * (-15.0 + 6.0 * x))


def mollify_scales(h: float) -> tuple[float, float]:
    """The (mollify_radius, taper_width) of a grid of spacing h: 0.02 and
    0.04, widened to 2h on coarse grids, so that the bump and the cutoff
    each span at least two cells."""
    return max(0.02, 2.0 * h), max(0.04, 2.0 * h)


def mollify(state: ArcState) -> ArcState:
    """Smooth a state's tangent field and taper it to zero near both ends,
    at the scales of its grid, (radius, width) = mollify_scales(h).

    The tangents are extended oddly below the free end and evenly beyond
    the pinned end (the latter is what odd reflection of the positions
    about s = 1 does to the derivative), convolved with a normalized
    polynomial bump of that radius, multiplied by a smooth-step cutoff
    that vanishes identically within a quarter of the width of either
    end, and re-integrated from the pin.  The tangent sup-norm never
    increases (the bump is a probability kernel and the cutoff is at most
    one), so admissible data stay admissible; a rescale guard enforces the
    unit bound anyway.
    """
    grid = state.grid
    h = grid.h
    delta, width = mollify_scales(h)
    u = state.tangents
    n = grid.n_cells

    m = int(np.floor((delta - 1e-12) / h))  # at least 1, as delta >= 2h
    offsets = np.arange(-m, m + 1) * h
    kernel = (1.0 - (offsets / delta) ** 2) ** 3
    kernel /= kernel.sum()

    left = -u[:m][::-1]
    right = u[n - m:][::-1]
    padded = np.vstack([left, u, right])
    smooth = np.column_stack(
        [np.convolve(padded[:, c], kernel, mode="valid") for c in range(u.shape[1])]
    )

    mids = grid.midpoints
    cutoff = _smoothstep((mids - 0.25 * width) / (0.5 * width)) \
        * _smoothstep(((1.0 - mids) - 0.25 * width) / (0.5 * width))
    # width >= 2h puts the end cells within a quarter width of the ends;
    # at width = 2h, 1 - s can round the pinned one just outside
    cutoff[[0, -1]] = 0.0
    tapered = smooth * cutoff[:, None]

    excess = np.linalg.norm(tapered, axis=1).max()
    if excess > 1.0:
        tapered = tapered / excess

    positions = _positions_from_tangents(grid, tapered)
    return ArcState(grid=grid, positions=positions, time=state.time)


@dataclass(frozen=True)
class BranchingPair:
    """Two generalized trajectories from the upright state, as their
    residuals (each the document ``ResidualAccumulator.result`` returns,
    as ``summary.json`` holds it), the L2 distance of their states at the
    horizon, and their realized tension signs: the least tension of the
    falling run and the largest of the stationary one, each over every
    state."""

    falling_residual: dict
    stationary_residual: dict
    separation: float
    falling_sigma_min: float
    stationary_sigma_max: float


def stationary_upright(grid: Grid, g: GravitySpec) -> tuple[ArcState, TensionProfile]:
    """The upright equilibrium state with its (nonpositive) tension."""
    state = ArcState(grid=grid, positions=np.outer(grid.nodes - 1.0, g.direction))
    tension = TensionProfile(grid=grid, values=-grid.nodes)
    return state, tension


def upright_release(grid: Grid, g: GravitySpec) -> ArcState:
    """The upright state, mollified (at the scales of its grid): the start
    of the falling run of :func:`branching_pair`."""
    return mollify(build(ScenarioSpec(kind="vertical_up"), grid, g))


def branching_pair(
    init: ArcState,
    horizon: float,
    rmap: RegularizedMap,
    g: GravitySpec,
    cfg: StepperConfig,
    *,
    observer=None,
    stats: Optional[dict] = None,
    stops: Sequence[float] = (),
) -> BranchingPair:
    """Demonstrate non-uniqueness from the upright state.

    The first trajectory evolves ``init`` (the upright state as
    ``upright_release`` builds it) under the regularized flow of ``rmap``,
    which cannot hold the compressive tension and drops toward the
    downward equilibrium; the second holds the exact upright pair
    fixed on init's grid, which satisfies the weak-solution conditions
    identically.  The falling run is one ``evolve`` call, which takes the
    arguments in the same order, with ``observer``, ``stats`` and
    ``stops`` passed on: each state evolve hands out, the initial one
    first, goes with the other four arguments of the observer into a
    RealizedResidual, paired with the tension it realizes, then to
    ``observer``, and no state is kept but the last.  A
    horizon of at most TIME_TOL takes no step and raises ValueError before
    the run.
    """
    if not horizon > TIME_TOL:
        raise ValueError(f"horizon T = {horizon:g} takes no step: it must "
                         f"exceed evolve's time tolerance {TIME_TOL:g}")
    grid = init.grid

    # the falling run pairs with the multiplier it actually realizes,
    # which is nonnegative by construction
    falling = RealizedResidual(grid, g)

    def record(state, dt, iters, flux, pot):
        falling.add(state, dt, iters, flux, pot)
        if observer is not None:
            observer(state, dt, iters, flux, pot)

    last = evolve(init, horizon, rmap, g, cfg, observer=record, stats=stats,
                  stops=stops)
    falling.flush()

    up_state, up_tension = stationary_upright(grid, g)
    stationary = ResidualAccumulator(g)
    for t in (0.0, 0.5 * horizon, horizon):
        stationary.add(replace(up_state, time=t), up_tension)

    diff = last.positions - up_state.positions
    separation = float(
        np.sqrt(grid.quad_trapezoid(np.sum(diff * diff, axis=1)))
    )
    return BranchingPair(
        falling_residual=falling.residual.result(),
        stationary_residual=stationary.result(),
        separation=separation,
        falling_sigma_min=falling.residual.sigma_min,
        stationary_sigma_max=stationary.sigma_max,
    )
