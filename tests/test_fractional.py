"""Tests for the L1 Caputo kernel: weights, history term, and exactness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from tfmultiscale.fractional import history_rhs, make_kernel
from tfmultiscale.linalg import gamma_fn
from tfmultiscale.schemes import HISTORY_BLOCK

ALPHAS = (0.3, 0.5, 0.9)


def caputo(kernel, u):
    """Discrete Caputo derivative of the scalar series ``u`` at
    T_1..T_{len-1}, through the production history term (test oracle)."""
    return np.array([(u[k + 1] - history_rhs(kernel, u[:k + 1, None])[0])
                     / kernel.alpha0 for k in range(len(u) - 1)])


def test_b0_is_one():
    for alpha in ALPHAS:
        k = make_kernel(alpha, 0.1, 10)
        assert k.b[0] == 1.0


def test_b1_closed_form():
    k = make_kernel(0.9, 0.1, 10)
    assert k.b[1] == pytest.approx(2 ** 0.1 - 1, rel=1e-14)
    assert k.b[1] == pytest.approx(0.0717735, rel=1e-5)


def test_alpha0_value():
    k = make_kernel(0.9, 2e-5, 10)
    assert k.alpha0 == pytest.approx(gamma_fn(1.1) * (2e-5) ** 0.9, rel=1e-14)
    assert k.alpha0 == pytest.approx(5.62e-5, rel=1e-2)


def test_alpha_range_rejected():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            make_kernel(bad, 0.1, 10)
    with pytest.raises(ValueError):
        make_kernel(0.5, -0.1, 10)
    with pytest.raises(ValueError):
        make_kernel(0.5, 0.1, 0)


def test_weights_positive_strictly_decreasing():
    for alpha in ALPHAS:
        k = make_kernel(alpha, 0.1, 1000)
        assert np.all(k.b > 0)
        assert np.all(np.diff(k.b) < 0)


def test_partial_sums_telescope():
    for alpha in ALPHAS:
        k = make_kernel(alpha, 0.1, 10 ** 4)
        csum = np.cumsum(k.b[:10 ** 4 + 1])
        expect = (np.arange(10 ** 4 + 1) + 1.0) ** (1.0 - alpha)
        assert np.max(np.abs(csum / expect - 1.0)) <= 1e-12


def test_weight_integral_identity():
    # b_j = (1/(1-alpha)) * d/dj of j^{1-alpha} integrated over one unit:
    # b_j = (1-alpha) * integral_0^1 (j+s)^(-alpha) ds / (1-alpha)... i.e.
    # b_j = integral over s in [0,1] of (1-alpha)(j+s)^(-alpha) ds.
    for alpha in ALPHAS:
        k = make_kernel(alpha, 0.1, 20)
        for j in range(1, 20):
            val, _ = quad(lambda s: (1 - alpha) * (j + s) ** (-alpha), 0, 1)
            assert k.b[j] == pytest.approx(val, abs=1e-8)


def test_history_weights_sum_to_one():
    for alpha in ALPHAS:
        k = make_kernel(alpha, 0.1, 200)
        for step in (0, 1, 5, 200):
            w = k.weights(step, np.arange(step + 1))
            assert len(w) == step + 1
            assert np.sum(w) == pytest.approx(1.0, abs=1e-13)


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.01, 0.99), N=st.integers(1, 2000))
def test_weight_identities_for_random_alpha_and_n(alpha, N):
    k = make_kernel(alpha, 0.1, N)
    b = k.b[:N + 1]
    assert b[0] == 1.0
    assert np.all(b > 0) and np.all(np.diff(b) < 0)
    expect = (np.arange(N + 1) + 1.0) ** (1.0 - alpha)
    assert np.max(np.abs(np.cumsum(b) / expect - 1.0)) <= 1e-12
    w = k.weights(N, np.arange(N + 1))
    assert np.all(w > 0)
    assert np.sum(w) == pytest.approx(1.0, abs=1e-13)


def test_history_rhs_first_step():
    k = make_kernel(0.5, 0.1, 5)
    u0 = np.array([2.0, -1.0])
    assert np.allclose(history_rhs(k, [u0]), u0)


def test_history_rhs_constant_series():
    k = make_kernel(0.3, 0.02, 50)
    c = 3.7
    hist = np.full((20, 4), c)
    assert np.allclose(history_rhs(k, hist), c, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       N=st.integers(1, 3 * HISTORY_BLOCK + 7), n=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_blocked_history_matches_the_full_sum(alpha, N, n, seed):
    """At every step k, in the block starting at K, the product of the
    block's weights against u^0..u^(K-1) (as run_scheme forms it) plus the
    windowed history_rhs over u^K..u^k equals weights(k, 0..k) @ H[:k+1]
    to 1e-13, relative to the sum of |w_j| |u^j|."""
    kernel = make_kernel(alpha, 0.01, N)
    H = np.random.default_rng(seed).standard_normal((N + 1, n))
    for K in range(0, N + 1, HISTORY_BLOCK):
        steps = np.arange(K, min(K + HISTORY_BLOCK, N + 1))
        past = kernel.weights(steps[:, None], np.arange(K)) @ H[:K]
        for k in steps:
            got = history_rhs(kernel, H[K:k + 1], K, past[k - K])
            w = kernel.weights(k, np.arange(k + 1))
            scale = np.abs(w) @ np.abs(H[:k + 1])
            assert np.all(np.abs(got - w @ H[:k + 1]) <= 1e-13 * scale)


def test_history_weights_read_from_the_difference_table():
    """The table's weights are bit-equal to the telescoped differences."""
    k = make_kernel(0.37, 0.1, 300)
    for step in (0, 1, 49, 50, 300):
        j = np.arange(1, step + 1)
        expect = np.concatenate([[k.b[step]], k.b[step - j] - k.b[step - j + 1]])
        assert np.array_equal(k.weights(step, np.arange(step + 1)), expect)


def test_history_rhs_beyond_the_kernel_rejected():
    k = make_kernel(0.5, 0.1, 5)
    with pytest.raises(ValueError, match="out of range"):
        history_rhs(k, np.zeros((3, 2)), start=4)


def test_history_rhs_empty_rejected():
    k = make_kernel(0.5, 0.1, 5)
    with pytest.raises(ValueError):
        history_rhs(k, np.zeros((0, 3)))


def test_caputo_constant_is_zero():
    k = make_kernel(0.5, 0.05, 30)
    out = caputo(k, np.full(31, 4.2))
    assert np.allclose(out, 0.0, atol=1e-12)


def test_caputo_exact_on_linear():
    """L1 is exact on u(t)=t: D^alpha t = t^(1-alpha)/Gamma(2-alpha)."""
    N = 100
    for alpha in ALPHAS:
        dt = 0.01
        k = make_kernel(alpha, dt, N)
        t = dt * np.arange(N + 1)
        out = caputo(k, t)
        exact = t[1:] ** (1.0 - alpha) / gamma_fn(2.0 - alpha)
        assert np.max(np.abs(out / exact - 1.0)) <= 1e-10


def test_caputo_quadratic_convergence_rate():
    """For u=t^2 the L1 error decays like dt^(2-alpha) (Richardson check)."""
    alpha = 0.5
    T = 1.0
    errs = []
    for N in (40, 80, 160):
        dt = T / N
        k = make_kernel(alpha, dt, N)
        t = dt * np.arange(N + 1)
        out = caputo(k, t ** 2)
        exact = 2.0 * t[1:] ** 1.5 / math.gamma(2.5)
        errs.append(np.max(np.abs(out - exact)))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(rates - (2 - alpha)) < 0.2)
