import numpy as np
import pytest

from whipflow import Grid
from whipflow.errors import ShapeError


def test_grid_construction():
    grid = Grid(4)
    assert grid.h == 0.25
    assert abs(grid.h * grid.n_cells - 1.0) <= 1e-15
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 1.0
    assert np.all(np.diff(grid.nodes) > 0)
    np.testing.assert_allclose(grid.midpoints, [0.125, 0.375, 0.625, 0.875])


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        Grid(0)
    with pytest.raises(ValueError):
        Grid(-3)
    for bad in (float("inf"), float("nan"), np.inf, np.nan, 2.5):
        with pytest.raises(ValueError, match="positive integer"):
            Grid(bad)


def test_diff_forward_constant_is_zero():
    grid = Grid(17)
    assert np.all(grid.diff_forward(np.full(grid.n_nodes, 3.7)) == 0.0)


def test_diff_forward_identity():
    grid = Grid(4)
    np.testing.assert_allclose(grid.diff_forward(grid.nodes), 1.0, atol=1e-14)


def test_diff_forward_square_hits_midpoints_exactly():
    # (s_{i+1}^2 - s_i^2)/h = s_{i+1} + s_i = 2 s_{i+1/2}
    grid = Grid(4)
    np.testing.assert_allclose(
        grid.diff_forward(grid.nodes ** 2), 2.0 * grid.midpoints, atol=1e-14
    )


def test_diff_forward_shape_error():
    grid = Grid(4)
    with pytest.raises(ShapeError):
        grid.diff_forward(np.zeros(4))


def test_trapezoid_values():
    grid = Grid(10)
    assert grid.quad_trapezoid(np.ones(11)) == pytest.approx(1.0, abs=1e-15)
    assert grid.quad_trapezoid(grid.nodes) == pytest.approx(0.5, abs=1e-15)
    assert grid.quad_trapezoid(grid.nodes ** 2) == pytest.approx(0.335, abs=1e-15)


def test_midpoint_values():
    grid = Grid(10)
    assert grid.quad_midpoint(np.ones(10)) == pytest.approx(1.0, abs=1e-15)
    assert grid.quad_midpoint(grid.midpoints) == pytest.approx(0.5, abs=1e-15)
    assert grid.quad_midpoint(grid.midpoints ** 2) == pytest.approx(0.3325, abs=1e-15)


def test_quadrature_shape_errors():
    grid = Grid(10)
    with pytest.raises(ShapeError):
        grid.quad_trapezoid(np.ones(10))
    with pytest.raises(ShapeError):
        grid.quad_midpoint(np.ones(11))


def test_telescoping_sum():
    rng = np.random.default_rng(0)
    grid = Grid(101)
    values = rng.normal(size=grid.n_nodes)
    total = grid.h * grid.diff_forward(values).sum()
    assert total == pytest.approx(values[-1] - values[0], abs=1e-12)


@pytest.mark.parametrize("rule", ["trapezoid", "midpoint"])
def test_quadratures_are_second_order(rule):
    f = lambda s: np.exp(s) * np.sin(2.0 * s)
    exact = (np.exp(1.0) * (np.sin(2.0) - 2.0 * np.cos(2.0)) + 2.0) / 5.0
    errors = []
    for n in (50, 100):
        grid = Grid(n)
        if rule == "trapezoid":
            approx = grid.quad_trapezoid(f(grid.nodes))
        else:
            approx = grid.quad_midpoint(f(grid.midpoints))
        errors.append(abs(approx - exact))
    ratio = errors[0] / errors[1]
    assert 4.0 * 0.85 <= ratio <= 4.0 * 1.15


def edge_vectors(rng, shape):
    """Random vectors with +-0, subnormal entries and entries up to
    +-VEC_MAX, the largest the map reads."""
    from whipflow.regmap import VEC_MAX

    v = rng.normal(size=shape) * 10.0 ** rng.integers(-320, 80, size=shape)
    pick = rng.random(shape)
    v[pick < 0.1] = 0.0
    v[(pick >= 0.1) & (pick < 0.2)] = -0.0
    tiny = (pick >= 0.2) & (pick < 0.3)
    v[tiny] = 5e-324 * rng.integers(-1000, 1000, size=tiny.sum())
    big = (pick >= 0.3) & (pick < 0.35)
    v[big] = VEC_MAX * rng.choice([-1.0, 1.0], size=big.sum())
    return v


@pytest.mark.parametrize("dim", [2, 3])
def test_row_dot_is_bitwise_numpys_sum_and_norm(dim):
    # the hot path swapped these reductions for row_dot on the promise that
    # no bit moves; if a numpy release reorders its reduction, this fails
    from whipflow.grid import row_dot

    rng = np.random.default_rng(dim)
    for shape in [(20000, dim), (7, 300, dim), (dim,)]:
        a, b = edge_vectors(rng, shape), edge_vectors(rng, shape)
        assert np.array_equal(
            np.asarray(row_dot(a, b)).view(np.uint64),
            np.asarray(np.sum(a * b, axis=-1)).view(np.uint64))
        assert np.array_equal(
            np.asarray(np.sqrt(row_dot(a, a))).view(np.uint64),
            np.asarray(np.linalg.norm(a, axis=-1)).view(np.uint64))
