"""Uniform discretization of the unit arc-length interval.

All solvers share one staggered layout: positions and tensions live on the
nodes ``s_i = i*h``, tangents and fluxes live on the midpoints
``s_{i+1/2} = (i+1/2)*h``.  This makes the divergence of a midpoint flux a
natural node-centered difference and keeps every boundary term
single-valued.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

# 0 as a 0-d array: numpy takes a Python float operand by a slower path
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sum over p of a[..., p]*b[..., p], added left to right from
    numpy's start value +0.0.

    Over a vector axis of length 2 or 3 this is bitwise np.sum(a*b,
    axis=-1), and its square root with a = b is bitwise np.linalg.norm(a,
    axis=-1), at a third of their cost.  (The start value only turns an
    all -0 sum into +0.)"""
    out = a[..., 0] * b[..., 0]
    out += _ZERO
    for p in range(1, a.shape[-1]):
        out += a[..., p] * b[..., p]
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform grid on (0, 1) with ``n_cells`` intervals."""

    n_cells: int
    h: float = field(init=False)
    nodes: np.ndarray = field(init=False, repr=False)
    midpoints: np.ndarray = field(init=False, repr=False)
    # h as a 0-d array, like _ZERO, for the per-step differences
    _h: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # finite first: int() of inf or NaN raises its own error
        if not (math.isfinite(self.n_cells) and int(self.n_cells) == self.n_cells
                and self.n_cells >= 1):
            raise ValueError(f"n_cells must be a positive integer, got {self.n_cells}")
        n = int(self.n_cells)
        h = 1.0 / n
        h_array = np.array(h)
        h_array.flags.writeable = False
        nodes = np.linspace(0.0, 1.0, n + 1)
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        nodes.flags.writeable = False
        mids.flags.writeable = False
        object.__setattr__(self, "n_cells", n)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "_h", h_array)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "midpoints", mids)

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    def _check_nodal(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape[0] != self.n_nodes:
            raise ShapeError(
                f"expected {self.n_nodes} node samples, got {values.shape[0]}"
            )
        return values

    def _check_midpoint(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape[0] != self.n_cells:
            raise ShapeError(
                f"expected {self.n_cells} midpoint samples, got {values.shape[0]}"
            )
        return values

    def diff_forward(self, values: np.ndarray) -> np.ndarray:
        """First difference mapping node samples to midpoint samples.

        Exact for affine data; works on scalar fields ``(n+1,)`` and vector
        fields ``(n+1, d)`` alike.
        """
        values = self._check_nodal(values)
        return (values[1:] - values[:-1]) / self._h

    def quad_trapezoid(self, values: np.ndarray) -> float:
        """Trapezoid rule for a node-sampled scalar field; exact for affine
        integrands."""
        values = self._check_nodal(values)
        if values.ndim != 1:
            raise ShapeError("quad_trapezoid expects a scalar field")
        return self.h * (values.sum() - 0.5 * (values[0] + values[-1]))

    def quad_midpoint(self, values: np.ndarray) -> float:
        """Midpoint rule for a midpoint-sampled scalar field."""
        values = self._check_midpoint(values)
        if values.ndim != 1:
            raise ShapeError("quad_midpoint expects a scalar field")
        return self.h * values.sum()
