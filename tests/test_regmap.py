import numpy as np
import pytest

from whipflow import RegularizedMap, regmap
from whipflow.errors import InversionError, NumericDomainError


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


@pytest.mark.parametrize("eps", np.geomspace(1e-4, 1.0, 9))
def test_radial_inversion_converges_in_three_updates(eps, monkeypatch):
    monkeypatch.setattr(regmap, "INVERT_MAX_UPDATES", 3)
    m = RegularizedMap(eps, dim=2)
    rho = m._invert_radial(RADII)
    assert np.all(rho >= 0.0)
    assert np.all(np.abs(m._radial(rho) - RADII) <= 1e-15 * (1.0 + RADII))


def test_radial_inversion_raises_when_out_of_updates(monkeypatch):
    monkeypatch.setattr(regmap, "INVERT_MAX_UPDATES", 1)
    m = RegularizedMap(1e-3, dim=2)
    tau = np.stack([RADII, np.zeros_like(RADII)], axis=1)
    with pytest.raises(InversionError):
        m.invert(tau)


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
    m = RegularizedMap(0.02, dim=3)
    taus = rng.normal(size=(400, 3)) * 2.0
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
    kappa, jac, pot = m.local_calculus(taus)
    np.testing.assert_allclose(kappa, m.invert(taus), atol=1e-14)
    np.testing.assert_allclose(jac, m.inverse_jacobian(taus), atol=1e-12)
    np.testing.assert_allclose(pot, m.potential(taus), atol=1e-14)


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


# -- the one-entry inversion memo -----------------------------------------

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
    rng = np.random.default_rng(60 + dim)
    m = RegularizedMap(3e-3, dim=dim)
    tau = rng.normal(size=(50, dim)) * 1.5
    tau[4] = 0.0
    m.local_calculus(tau)
    calls = count_inversions(monkeypatch, m)
    hit = getattr(m, method)(tau.copy())
    assert calls == []
    assert _results_equal(hit, getattr(fresh(m), method)(tau))
