import warnings

import numpy as np
import pytest
from test_grid import edge_vectors

from whipflow import RegularizedMap, regmap
from whipflow.errors import InversionError, NumericDomainError
from whipflow.regmap import EPS_MAX, EPS_MIN, VEC_MAX


def rotation(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_params_validation():
    with pytest.raises(ValueError):
        RegularizedMap(0.0)
    with pytest.raises(ValueError):
        RegularizedMap(-1.0)
    with pytest.raises(ValueError):
        RegularizedMap(0.1, dim=4)


@pytest.mark.parametrize("eps", [1e-300, 1e-200, 1e-100, 1e-16, 4.7e4, 1e5,
                                 1e220, 1e300])
def test_an_eps_without_an_increasing_start_table_is_refused(eps):
    # below ~1e-15 the table's flat top repeats values (below ~1e-155 it
    # overflows); from ~4.65e4 up its log-spaced top falls under its bottom;
    # every such eps lies outside [EPS_MIN, EPS_MAX]
    with pytest.raises(ValueError, match="eps = "):
        RegularizedMap(eps)


@pytest.mark.parametrize("eps", [5e-15, 1e-15, 4.64e4, np.nextafter(EPS_MIN, 0),
                                 np.nextafter(EPS_MAX, np.inf), np.nan,
                                 np.inf])
def test_an_eps_outside_the_domain_is_refused(eps):
    # 5e-15, 1e-15 and 4.64e4 build an increasing start table, yet lie
    # outside the one stated interval
    with pytest.raises(ValueError, match="eps = "):
        RegularizedMap(eps)


@pytest.mark.parametrize("eps", [1e-14, 1e-8, 10.0, 4.6e4])
def test_an_eps_in_range_builds_a_strictly_increasing_start_table(eps):
    f_tab = RegularizedMap(eps)._f_tab
    assert np.all(np.isfinite(f_tab)) and np.all(np.diff(f_tab) > 0.0)


def test_the_start_table_increases_across_the_eps_domain():
    eps_values = np.geomspace(EPS_MIN, EPS_MAX, 201)
    assert eps_values[0] == EPS_MIN and eps_values[-1] == EPS_MAX
    for eps in eps_values:
        f_tab = RegularizedMap(eps)._f_tab
        assert np.all(np.isfinite(f_tab)) and np.all(np.diff(f_tab) > 0.0)


def test_forward_at_zero():
    m = RegularizedMap(0.37, dim=3)
    assert np.all(m.forward(np.zeros(3)) == 0.0)


def test_forward_hand_value():
    m = RegularizedMap(1.0, dim=2)
    out = m.forward(np.array([1.0, 0.0]))
    np.testing.assert_allclose(out, [1.0 + 1.0 / np.sqrt(2.0), 0.0], atol=1e-15)


def test_forward_stays_under_admissible_threshold():
    # the radial profile at radius 1/sqrt(eps) stays below 1 + sqrt(eps)
    eps = 0.01
    m = RegularizedMap(eps, dim=2)
    out = m.forward(np.array([1.0 / np.sqrt(eps), 0.0]))
    assert np.linalg.norm(out) < 1.0 + np.sqrt(eps)


def test_invert_at_zero():
    m = RegularizedMap(0.5, dim=2)
    assert np.all(m.invert(np.zeros(2)) == 0.0)


def test_invert_undoes_forward_hand_value():
    m = RegularizedMap(1.0, dim=2)
    out = m.invert(np.array([1.0 + 1.0 / np.sqrt(2.0), 0.0]))
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)


def test_invert_large_input_large_output():
    # |invert| >= 1/sqrt(eps) once |tau| >= 1 + sqrt(eps)
    m = RegularizedMap(0.04, dim=2)
    out = m.invert(np.array([1.2, 0.0]))
    assert np.linalg.norm(out) >= 5.0


# zero, the smallest subnormal, a tiny normal, a fine sweep through the knee
# of the radial profile and sixteen decades around it
RADII = np.concatenate((
    [0.0, 5e-324, 1e-300], np.linspace(0.0, 3.0, 20001),
    np.geomspace(1e-8, 1e8),
))


def record_newton_steps(m):
    """Make m record the residual of each Newton evaluation."""
    residuals = []
    inner = m._newton_step

    def recorded(rho, r):
        resid, step = inner(rho, r)
        residuals.append(resid)
        return resid, step

    m._newton_step = recorded
    return residuals


@pytest.mark.parametrize("eps", np.geomspace(1e-4, 1.0, 9))
def test_radial_inversion_converges_in_three_updates(eps):
    m = RegularizedMap(eps, dim=2)
    residuals = record_newton_steps(m)
    rho = m._invert_radial(RADII)
    assert np.all(rho >= 0.0)
    assert np.all(np.abs(m._radial(rho) - RADII) <= 1e-15 * (1.0 + RADII))
    # the checked iterate, after three updates, already meets the tolerance,
    # so the raise cannot fire on valid input
    assert np.all(np.abs(residuals[3]) <= regmap.INVERT_TOL * (1.0 + RADII))


# RADII and radii up to the norm bound of a 3-vector in the domain
DOMAIN_RADII = np.concatenate((
    RADII, np.geomspace(1e8, np.sqrt(3.0) * VEC_MAX, 400),
))


@pytest.mark.parametrize("eps", np.geomspace(EPS_MIN, EPS_MAX, 19))
def test_radial_inversion_passes_its_check_across_the_domain(eps):
    m = RegularizedMap(eps, dim=3)
    residuals = record_newton_steps(m)
    rho = m._invert_radial(DOMAIN_RADII)
    assert np.all(rho >= 0.0) and np.all(np.isfinite(rho))
    assert np.all(np.abs(residuals[3])
                  <= regmap.INVERT_TOL * (1.0 + DOMAIN_RADII))
    assert np.all(np.abs(m._radial(rho) - DOMAIN_RADII)
                  <= 1e-15 * (1.0 + DOMAIN_RADII))


@pytest.mark.parametrize("r", [RADII, np.zeros(7), np.array([0.8])],
                         ids=["radii", "zeros", "single"])
def test_radial_inversion_makes_exactly_five_evaluations(r):
    m = RegularizedMap(1e-2, dim=2)
    residuals = record_newton_steps(m)
    m._invert_radial(r)
    assert len(residuals) == 5


def test_radial_inversion_raises_when_out_of_updates(monkeypatch):
    # the check then falls on the iterate after one update
    monkeypatch.setattr(regmap, "INVERT_UPDATES", 3)
    m = RegularizedMap(1e-3, dim=2)
    tau = np.stack([RADII, np.zeros_like(RADII)], axis=1)
    with pytest.raises(InversionError):
        m.invert(tau)


def expression_loop_inversion(m, r):
    """The radial inversion written as plain expressions, with Python-float
    operands and a new array at every operation: the reference the in-place
    kernel must reproduce bit for bit."""
    r = np.asarray(r, dtype=float)
    rho = np.where(r > m._f_tab[-1], (r - 1.0) / m.eps,
                   np.interp(r, m._f_tab, m._rho_tab))
    for _ in range(regmap.INVERT_UPDATES):
        q = np.sqrt(m.eps + rho * rho)
        resid = m.eps * rho + rho / q - r
        rho = np.maximum(rho - resid / (m.eps + m.eps / (q * q * q)), 0.0)
    return rho


@pytest.mark.parametrize("eps", np.geomspace(EPS_MIN, EPS_MAX, 19))
def test_radial_inversion_is_bitwise_the_expression_loop(eps):
    m = RegularizedMap(eps, dim=3)
    for r in (RADII, DOMAIN_RADII):
        assert np.array_equal(m._invert_radial(r).view(np.uint64),
                              expression_loop_inversion(m, r).view(np.uint64))
    for r in (0.0, 0.8, 1e8, DOMAIN_RADII[-1]):
        got = m._invert_radial(r)
        assert np.shape(got) == ()
        assert got.tobytes() == expression_loop_inversion(m, r).tobytes()


@pytest.mark.parametrize("eps", [EPS_MIN, 1e-4, 1e-2, 1.0, EPS_MAX])
def test_a_field_above_the_start_table_is_bitwise_the_expression_loop(eps):
    # the (r - 1)/eps start is put in only when some r lies above the
    # table: fields wholly below, wholly above and mixed, flat and 2-d
    m = RegularizedMap(eps, dim=3)
    top = m._f_tab[-1]
    below = np.array([0.0, 0.5 * top, top])
    above = np.array([np.nextafter(top, np.inf), 2.0 * top, 1e3 * top,
                      DOMAIN_RADII[-1]])
    mixed = np.concatenate((above[:3], below))
    for r in (below, above, mixed, mixed.reshape(2, 3)):
        got = m._invert_radial(r)
        assert got.shape == r.shape
        assert got.tobytes() == expression_loop_inversion(m, r).tobytes()


def spoil_checked_residual(m, resid):
    """Make m's checked Newton evaluation, the one after INVERT_UPDATES - 2
    updates, return the residual ``resid``; its update is left as it is."""
    inner = m._newton_step
    calls = []

    def spoiled(rho, r):
        out = inner(rho, r)
        calls.append(1)
        return (resid, out[1]) if len(calls) == regmap.INVERT_UPDATES - 1 \
            else out

    m._newton_step = spoiled


# radii over two axes, so the check reads every axis
CHECK_RADII = np.array([[0.0, 3.0, 0.5], [1.0, 7.0, 1e6]])
CHECK_BOUND = regmap.INVERT_TOL * (1.0 + CHECK_RADII)


def _one_above(resid, at):
    out = resid.copy()
    out[at] = np.nextafter(CHECK_BOUND[at], np.inf)
    return out


@pytest.mark.parametrize("resid", [
    np.full(CHECK_RADII.shape, regmap.INVERT_TOL),
    -np.full(CHECK_RADII.shape, regmap.INVERT_TOL),
    CHECK_BOUND,
    -CHECK_BOUND,
    np.where(CHECK_RADII > 2.0, CHECK_BOUND, 0.0),
    _one_above(CHECK_BOUND, (1, 1)),
    -_one_above(CHECK_BOUND, (0, 1)),
    _one_above(np.zeros(CHECK_RADII.shape), (0, 0)),
    np.where(CHECK_RADII == 7.0, np.nan, 0.0),
    np.where(CHECK_RADII == 7.0, -np.inf, 0.0),
], ids=["tol", "minus-tol", "bound", "minus-bound", "above-tol-within-bound",
        "one-above-bound", "minus-one-above-bound", "above-tol-at-zero",
        "nan", "inf"])
def test_the_inversion_check_raises_exactly_when_the_entrywise_test_fails(
        resid):
    # a residual above INVERT_TOL but within INVERT_TOL*(1 + r) passes, by
    # the entrywise test the largest-residual shortcut falls back on
    m = RegularizedMap(1e-2, dim=2)
    spoil_checked_residual(m, resid)
    if (np.abs(resid) <= CHECK_BOUND).all():
        rho = m._invert_radial(CHECK_RADII)
        assert rho.tobytes() == \
            expression_loop_inversion(m, CHECK_RADII).tobytes()
    else:
        with pytest.raises(InversionError):
            m._invert_radial(CHECK_RADII)


def reference_domain_check(v):
    """The domain check as the entrywise comparison, reduced by all()."""
    return bool((np.abs(v) <= VEC_MAX).all())


@pytest.mark.parametrize("dim", [2, 3])
def test_the_domain_check_keeps_the_entrywise_verdicts(dim):
    m = RegularizedMap(1e-2, dim=dim)
    beyond = VEC_MAX * (1.0 + 2.0 ** -52)
    assert beyond > VEC_MAX
    fields = [np.zeros((0, dim)), np.zeros((4, 0, dim)),
              domain_edge_field(dim)]
    for value in (np.nan, np.inf, -np.inf, beyond, -beyond, VEC_MAX,
                  -VEC_MAX, -0.0):
        field = domain_edge_field(dim)
        field[2, -1] = value
        fields.append(field)
    verdicts = []
    for field in fields:
        verdicts.append(reference_domain_check(field))
        if verdicts[-1]:
            assert m._check_vec(field, "tau").tobytes() == field.tobytes()
        else:
            with pytest.raises(NumericDomainError, match="beyond"):
                m._check_vec(field, "tau")
    assert verdicts == [True, True, True] + [False] * 5 + [True] * 3
    # an empty field passes to the end
    kappa, (inv_c1, gain), pot = m.local_calculus(np.zeros((0, dim)))
    assert kappa.shape == (0, dim)
    assert inv_c1.shape == gain.shape == pot.shape == (0,)


@pytest.mark.parametrize("dim", [2, 3])
def test_flux_scale_is_bitwise_the_where_form(dim):
    # one masked divide in place of two np.where, +0 at tau = 0
    rng = np.random.default_rng(70 + dim)
    m = RegularizedMap(1e-2, dim=dim)
    tau = edge_vectors(rng, (2000, dim))
    r = np.sqrt(np.sum(tau * tau, axis=-1))
    rho = expression_loop_inversion(m, r)
    scale = np.where(r > 0.0, rho / np.where(r > 0.0, r, 1.0), 0.0)
    assert np.array_equal(m.invert(tau).view(np.uint64),
                          (tau * scale[..., None]).view(np.uint64))


def test_round_trip_battery():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        eps = 10.0 ** rng.uniform(-4.0, 0.0)
        d = int(rng.choice([2, 3]))
        m = RegularizedMap(eps, dim=d)
        tau = rng.normal(size=d)
        tau *= rng.uniform(0.0, 10.0) / max(np.linalg.norm(tau), 1e-12)
        err = np.linalg.norm(m.forward(m.invert(tau)) - tau)
        assert err <= 1e-10 * (1.0 + np.linalg.norm(tau))


def test_radial_equivariance():
    rng = np.random.default_rng(8)
    for _ in range(50):
        d = int(rng.choice([2, 3]))
        m = RegularizedMap(10.0 ** rng.uniform(-3, 0), dim=d)
        tau = rng.normal(size=d)
        rot = rotation(rng, d)
        err = np.linalg.norm(m.invert(rot @ tau) - rot @ m.invert(tau))
        assert err <= 1e-12


def test_strict_monotonicity():
    rng = np.random.default_rng(9)
    m = RegularizedMap(0.03, dim=3)
    for _ in range(300):
        a, b = rng.normal(size=3) * 2.0, rng.normal(size=3) * 2.0
        assert float(np.dot(m.forward(a) - m.forward(b), a - b)) > 0.0


def test_jacobian_isotropic_at_origin():
    eps = 0.2
    m = RegularizedMap(eps, dim=3)
    expected = np.eye(3) / (eps + eps ** -0.5)
    np.testing.assert_allclose(m.inverse_jacobian(np.zeros(3)), expected,
                               atol=1e-14)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(10)
    m = RegularizedMap(0.1, dim=3)
    delta = 1e-6
    for _ in range(20):
        tau = rng.normal(size=3)
        jac = m.inverse_jacobian(tau)
        for j in range(3):
            e = np.zeros(3)
            e[j] = delta
            fd = (m.invert(tau + e) - m.invert(tau - e)) / (2.0 * delta)
            assert np.abs(jac[:, j] - fd).max() <= 1e-5


def test_eigenvalues_within_spectral_bounds():
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = int(rng.choice([2, 3]))
        m = RegularizedMap(10.0 ** rng.uniform(-4, 0), dim=d)
        tau = rng.normal(size=d) * rng.uniform(0.0, 3.0)
        lo, hi = m.spectral_bounds(tau)
        assert 0.0 < lo <= hi
        eigs = np.linalg.eigvalsh(m.inverse_jacobian(tau))
        assert eigs.min() >= lo * (1.0 - 1e-9)
        assert eigs.max() <= hi * (1.0 + 1e-9)


def test_spectral_bounds_at_origin():
    eps = 0.3
    m = RegularizedMap(eps, dim=2)
    lo, hi = m.spectral_bounds(np.zeros(2))
    assert lo == pytest.approx(1.0 / (eps + eps ** -0.5), rel=1e-14)
    assert hi == pytest.approx((1.0 / eps) / (1.0 + eps ** -1.5), rel=1e-14)


def test_transverse_eigenvalue_exceeds_one_past_threshold():
    m = RegularizedMap(0.04, dim=2)
    lo, _ = m.spectral_bounds(np.array([1.3, 0.0]))
    assert lo >= 1.0


def test_transverse_eigenvalue_lower_bound():
    rng = np.random.default_rng(12)
    for _ in range(100):
        eps = 10.0 ** rng.uniform(-3, 0)
        m = RegularizedMap(eps, dim=2)
        tau = rng.normal(size=2) * rng.uniform(0, 4)
        lo, _ = m.spectral_bounds(tau)
        rho = np.linalg.norm(m.invert(tau))
        assert lo >= rho / (eps * rho + 1.0) - 1e-12


def test_positivity_transfer():
    rng = np.random.default_rng(13)
    for dim in (3, 2):
        m = RegularizedMap(0.02, dim=dim)
        taus = rng.normal(size=(400, dim)) * 2.0
        assert np.sum(m.invert(taus) * taus, axis=1).min() >= 0.0


def test_potential_at_zero_is_minus_sqrt_eps():
    eps = 0.17
    m = RegularizedMap(eps, dim=2)
    assert m.potential(np.zeros(2)) == pytest.approx(-np.sqrt(eps), rel=1e-14)


def test_potential_lower_bound():
    rng = np.random.default_rng(14)
    for eps in (1e-4, 1e-2, 0.25, 1.0):
        m = RegularizedMap(eps, dim=2)
        taus = rng.normal(size=(200, 2)) * 3.0
        assert m.potential(taus).min() >= -np.sqrt(eps) - 1e-15


def test_potential_gradient_is_inverse_map():
    rng = np.random.default_rng(15)
    m = RegularizedMap(0.1, dim=2)
    delta = 1e-6
    for _ in range(20):
        u = rng.normal(size=2)
        grad = np.array([
            (m.potential(u + dv) - m.potential(u - dv)) / (2.0 * delta)
            for dv in np.eye(2) * delta
        ])
        assert np.abs(grad - m.invert(u)).max() <= 1e-5


def test_bounded_tangents_give_bounded_energy_density():
    # with |tau| <= 1 + sqrt(eps) and eps <= 1/4 the potential density plus
    # the unit-length gravity term keeps the total energy of admissible
    # initial data at 2 or less
    rng = np.random.default_rng(16)
    for eps in (1e-3, 1e-2, 0.25):
        m = RegularizedMap(eps, dim=2)
        dirs = rng.normal(size=(200, 2))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        taus = dirs * (1.0 + np.sqrt(eps)) * rng.uniform(0, 1, size=(200,))[:, None]
        density = m.potential(taus)
        assert density.max() + 1.0 <= 2.0


def test_local_calculus_consistency():
    rng = np.random.default_rng(17)
    m = RegularizedMap(0.05, dim=3)
    taus = rng.normal(size=(50, 3))
    kappa, radial, pot = m.local_calculus(taus)
    # the radial form (inv_c1, gain) expands into inverse_jacobian
    jac = m._jacobian(kappa, *radial)
    np.testing.assert_allclose(kappa, m.invert(taus), atol=1e-14)
    np.testing.assert_allclose(jac, m.inverse_jacobian(taus), atol=1e-12)
    np.testing.assert_allclose(pot, m.potential(taus), atol=1e-14)
    assert np.array_equal(jac.view(np.uint64),
                          m.inverse_jacobian(taus).view(np.uint64))


def test_non_finite_inputs_rejected():
    m = RegularizedMap(0.1, dim=2)
    bad = np.array([np.nan, 0.0])
    for op in (m.forward, m.invert, m.inverse_jacobian, m.potential):
        with pytest.raises(NumericDomainError):
            op(bad)
    with pytest.raises(NumericDomainError):
        m.forward(np.array([np.inf, 1.0]))
    with pytest.raises(NumericDomainError):
        m.forward(np.zeros(3))  # dimension mismatch
    # a finite tangent with an entry beyond VEC_MAX is refused by name, with
    # no RuntimeWarning (an error under this suite's warning filter)
    with pytest.raises(NumericDomainError, match="beyond"):
        m.invert([1e200, 0.0])
    # a field holding a NaN or an inf is rejected by every reader, also
    # right after a finite field of its shape
    field = np.array([[0.3, -0.4], [1.2, 0.0], [0.0, 0.0]])
    m.local_calculus(field)
    for value in (np.nan, np.inf):
        bad = field.copy()
        bad[1, 0] = value
        for op in (m.invert, m.inverse_jacobian, m.potential,
                   m.local_calculus):
            with pytest.raises(NumericDomainError, match="non-finite"):
                op(bad)
    with pytest.raises(NumericDomainError):
        m.invert(np.zeros((3, 3)))  # same rows, wrong dimension


def domain_edge_field(dim):
    """Tangents with entries at +-VEC_MAX, mixed with zeros and ones."""
    rows = [np.full(dim, VEC_MAX), np.full(dim, -VEC_MAX), np.zeros(dim),
            np.eye(dim)[0] * VEC_MAX, np.r_[-VEC_MAX, np.ones(dim - 1)]]
    return np.array(rows)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("eps", [EPS_MIN, 1e-2, EPS_MAX])
def test_entries_at_the_bound_give_finite_values(eps, dim):
    m = RegularizedMap(eps, dim=dim)
    field = domain_edge_field(dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kappa, radial, pot = m.local_calculus(field)
        values = (kappa, *radial, m._jacobian(kappa, *radial), pot,
                  *m.spectral_bounds(field), m.forward(field))
    for value in values:
        assert np.all(np.isfinite(value))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("eps", [EPS_MIN, 1e-2, EPS_MAX])
def test_an_entry_beyond_the_bound_is_refused(eps, dim):
    m = RegularizedMap(eps, dim=dim)
    field = domain_edge_field(dim)
    for sign in (1.0, -1.0):
        bad = field.copy()
        bad[2, -1] = sign * np.nextafter(VEC_MAX, np.inf)
        for op in (m.local_calculus, m.spectral_bounds, m.forward):
            with pytest.raises(NumericDomainError, match="beyond"):
                op(bad)


def broadcast_jacobian(m, tau):
    """inverse_jacobian as the (..., d, d) broadcast of Sherman-Morrison,
    the reference its entry-by-entry fill must reproduce bit for bit."""
    tau, scale, rho2, w = m._field(tau)
    kappa = tau * scale[..., None]
    c1 = m.eps + w
    c3 = w ** 3
    outer = kappa[..., :, None] * kappa[..., None, :]
    radial_gain = c3 / (c1 * (c1 - c3 * rho2))
    return np.eye(m.dim) / c1[..., None, None] \
        + outer * radial_gain[..., None, None]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("eps",
                         [EPS_MIN, *np.geomspace(1e-4, 1.0, 5), EPS_MAX])
def test_jacobian_is_bitwise_the_broadcast_form(eps, dim):
    rng = np.random.default_rng(dim)
    m = RegularizedMap(eps, dim=dim)
    tau = np.concatenate((edge_vectors(rng, (3000, dim)),
                          domain_edge_field(dim)))
    expected = broadcast_jacobian(m, tau)
    # signbits included: off the diagonal the broadcast adds 0.0/c1 = +0.0
    kappa, radial, _ = m.local_calculus(tau)
    for got in (m.inverse_jacobian(tau), m._jacobian(kappa, *radial)):
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    # a single vector gives bitwise its row of the field, in every reader
    assert_rows_are_single_vectors(m, tau[::30])


READERS = ("invert", "potential", "local_calculus", "inverse_jacobian",
           "spectral_bounds")


def assert_bitwise(got, expected):
    """Equal bits, shapes and types, through nested tuples."""
    if isinstance(expected, tuple):
        assert isinstance(got, tuple) and len(got) == len(expected)
        for part, want in zip(got, expected):
            assert_bitwise(part, want)
        return
    assert type(got) is type(expected)
    assert np.shape(got) == np.shape(expected)
    assert np.array_equal(np.asarray(got).view(np.uint64),
                          np.asarray(expected).view(np.uint64))


def assert_rows_are_single_vectors(m, field):
    """Each reader's value at each vector of ``field`` is bitwise its row
    of the reader's value at the field."""
    for name in READERS:
        reader = getattr(m, name)
        whole = reader(field)
        for i, v in enumerate(field):
            row = row_at(whole, i)
            assert_bitwise(reader(v), row)
            assert_bitwise(reader(list(v)), row)


def row_at(value, i):
    if isinstance(value, tuple):
        return tuple(row_at(part, i) for part in value)
    return value[i]


@pytest.mark.parametrize("dim", [2, 3])
def test_a_single_vector_gives_its_row_of_the_field(dim):
    # random tangents at eps = 1e-2: numpy's scalar power and its array
    # loop round differently for about one in ten of them
    rng = np.random.default_rng(0)
    field = rng.normal(size=(2000, dim)) * rng.uniform(0.0, 3.0, (2000, 1))
    assert_rows_are_single_vectors(RegularizedMap(1e-2, dim=dim), field)


def test_a_tangent_whose_jacobian_would_overflow_is_refused():
    # 1e153 squares to a finite norm, but rho^3 in the Jacobian overflows
    with pytest.raises(NumericDomainError):
        RegularizedMap(1e-2).local_calculus([[1e153, 0.0]])


# -- readers are pure functions of eps, dim and the input ------------------

def fresh(m):
    return RegularizedMap(m.eps, dim=m.dim)


def count_inversions(monkeypatch, m):
    calls = []
    inner = m._invert_radial

    def counted(r):
        calls.append(1)
        return inner(r)

    monkeypatch.setattr(m, "_invert_radial", counted)
    return calls


@pytest.mark.parametrize("dim", [2, 3])
def test_memo_sees_in_place_mutation(dim):
    rng = np.random.default_rng(20 + dim)
    m = RegularizedMap(0.01, dim=dim)
    tau = rng.normal(size=(40, dim))
    before = m.invert(tau)
    tau[7] *= 3.0
    tau[-1, 0] = 0.5
    after = m.invert(tau)
    assert np.array_equal(after, fresh(m).invert(tau))
    assert not np.array_equal(after, before)


@pytest.mark.parametrize("dim", [2, 3])
def test_memo_survives_caller_mutating_the_result(dim):
    rng = np.random.default_rng(30 + dim)
    m = RegularizedMap(0.05, dim=dim)
    tau = rng.normal(size=(25, dim))
    kappa = m.invert(tau)
    kappa[:] = 0.0
    assert np.array_equal(m.invert(tau), fresh(m).invert(tau))


@pytest.mark.parametrize("dim", [2, 3])
def test_memo_keys_on_shape(dim):
    rng = np.random.default_rng(40 + dim)
    m = RegularizedMap(0.02, dim=dim)
    tau = rng.normal(size=(12, dim))
    m.invert(tau)
    head = tau[:5]
    out = m.invert(head)
    assert out.shape == head.shape
    assert np.array_equal(out, fresh(m).invert(head))
    # same values, different leading shape
    m.invert(tau)
    grouped = tau.reshape(3, 4, dim)
    out = m.invert(grouped)
    assert out.shape == grouped.shape
    assert np.array_equal(out, fresh(m).invert(grouped))
    # a single vector after a field that starts with it
    out = m.invert(tau[0])
    assert out.shape == (dim,)
    assert np.array_equal(out, fresh(m).invert(tau[0]))


@pytest.mark.parametrize("dim", [2, 3])
def test_memo_keeps_signed_zeros(dim):
    m = RegularizedMap(0.1, dim=dim)
    plus = np.zeros((4, dim))
    plus[2, 0] = 0.7
    minus = plus.copy()
    minus[0] = -0.0
    minus[2, 1] = -0.0  # zero component of a nonzero tangent
    minus[3, -1] = -0.0
    assert np.array_equal(plus, minus)
    m.invert(plus)
    kappa = m.invert(minus)  # equal values: a memo hit
    expected = fresh(m).invert(minus)
    assert np.array_equal(kappa, expected)
    assert np.array_equal(np.signbit(kappa), np.signbit(expected))
    assert np.array_equal(np.signbit(kappa), np.signbit(minus))
    kappa, _, _ = m.local_calculus(plus)
    assert not np.any(np.signbit(kappa))


@pytest.mark.parametrize("dim", [2, 3])
def test_memo_not_shared_between_maps(dim):
    rng = np.random.default_rng(50 + dim)
    tau = rng.normal(size=(30, dim))
    stiff = RegularizedMap(1e-3, dim=dim)
    soft = RegularizedMap(0.5, dim=dim)
    a = stiff.invert(tau)
    b = soft.invert(tau)
    assert not np.array_equal(a, b)
    assert np.array_equal(stiff.invert(tau), fresh(stiff).invert(tau))
    assert np.array_equal(soft.invert(tau), fresh(soft).invert(tau))


def _results_equal(x, y):
    if isinstance(x, tuple):
        return len(x) == len(y) and all(map(_results_equal, x, y))
    return np.array_equal(x, y)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(
    "method",
    ["invert", "inverse_jacobian", "spectral_bounds", "potential",
     "local_calculus"],
)
def test_memo_hit_is_bitwise_fresh(monkeypatch, dim, method):
    # the map keeps nothing: a reader called on the field local_calculus
    # just saw inverts it again, and returns what a fresh map does
    rng = np.random.default_rng(60 + dim)
    m = RegularizedMap(3e-3, dim=dim)
    tau = rng.normal(size=(50, dim)) * 1.5
    tau[4] = 0.0
    m.local_calculus(tau)
    calls = count_inversions(monkeypatch, m)
    got = getattr(m, method)(tau.copy())
    assert calls == [1]
    assert _results_equal(got, getattr(fresh(m), method)(tau))


READERS = ("invert", "inverse_jacobian", "spectral_bounds", "potential",
           "local_calculus", "forward")


@pytest.mark.parametrize("dim", [2, 3])
def test_readers_leave_the_map_as_constructed(dim):
    rng = np.random.default_rng(80 + dim)
    m = RegularizedMap(1e-2, dim=dim)
    built = {key: np.copy(value) for key, value in vars(m).items()}
    bad = np.zeros((3, dim))
    bad[1, 0] = np.nan
    for k, method in enumerate(READERS * 3):
        getattr(m, method)(rng.normal(size=(1 + 7 * k % 30, dim)))
        with pytest.raises(NumericDomainError):
            getattr(m, method)(bad)
    assert vars(m).keys() == built.keys()
    for key, value in vars(m).items():
        assert np.array_equal(value, built[key]), key
