import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid_prox_argmin, prox_objective
from ts1mc.scalar import (critical_lambda_mu, h_lambda, make_threshold_params,
                          rho_a, ts1_prox_scalar)

positive_a = st.floats(min_value=0.1, max_value=100.0)
positive_lm = st.floats(min_value=0.01, max_value=2.0)


class TestRhoA:
    def test_zero(self):
        assert rho_a(0.0, 1.0) == 0.0

    def test_one_maps_to_one_for_any_a(self):
        for a in (0.1, 1.0, 7.0, 250.0):
            assert rho_a(1.0, a) == pytest.approx(1.0, abs=1e-15)

    def test_direct_evaluation(self):
        assert rho_a(3.0, 2.0) == pytest.approx(1.8, abs=1e-15)

    def test_vectorized(self):
        out = rho_a(np.array([0.0, 1.0, 3.0]), 2.0)
        assert np.allclose(out, [0.0, 1.0, 1.8])

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rho_a(-0.5, 1.0)
        with pytest.raises(ValueError):
            rho_a(1.0, 0.0)

    @given(x=st.floats(min_value=0.0, max_value=1e6), a=positive_a)
    def test_range_and_monotonicity(self, x, a):
        v = rho_a(x, a)
        assert 0.0 <= v < a + 1.0
        assert rho_a(x + 1.0, a) > v


class TestThresholdParams:
    def test_critical_point_all_equal(self):
        p = make_threshold_params(1.0, 0.25)
        assert p.t1 == pytest.approx(0.5, abs=1e-12)
        assert p.t2 == pytest.approx(0.5, abs=1e-12)
        assert p.t3 == pytest.approx(0.5, abs=1e-12)
        assert p.t == pytest.approx(0.5, abs=1e-12)

    def test_subcritical(self):
        p = make_threshold_params(1.0, 0.1)
        assert p.t == pytest.approx(0.2, abs=1e-15)
        assert p.t == p.t2

    def test_supercritical(self):
        p = make_threshold_params(1.0, 1.0)
        assert p.t == pytest.approx(1.5, abs=1e-15)
        assert p.t == p.t3

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            make_threshold_params(0.0, 0.1)
        with pytest.raises(ValueError):
            make_threshold_params(1.0, 0.0)

    @given(a=positive_a, lm=positive_lm)
    def test_ordering(self, a, lm):
        p = make_threshold_params(a, lm)
        scale = max(p.t2, 1.0)
        assert p.t1 <= p.t3 + 1e-12 * scale
        assert p.t3 <= p.t2 + 1e-12 * scale

    @given(a=positive_a)
    def test_equality_only_at_critical(self, a):
        lm = critical_lambda_mu(a)
        p = make_threshold_params(a, lm)
        assert p.t1 == pytest.approx(p.t2, rel=1e-12, abs=1e-12)
        assert p.t3 == pytest.approx(p.t2, rel=1e-12, abs=1e-12)
        off = make_threshold_params(a, lm * 1.5)
        assert off.t3 < off.t2 - 1e-9 * max(off.t2, 1.0)


class TestHLambda:
    def test_known_value(self):
        # arccos argument is exactly 1/2 here, so h = 2 cos(pi/9)
        assert h_lambda(2.0, 1.0, 0.5) == pytest.approx(2.0 * math.cos(math.pi / 9),
                                                        abs=1e-12)

    def test_matches_grid_oracle(self):
        y_grid, _ = grid_prox_argmin(2.0, 1.0, 0.5, step=1e-5)
        assert h_lambda(2.0, 1.0, 0.5) == pytest.approx(y_grid, abs=1e-4)

    def test_odd_symmetry(self):
        assert h_lambda(-2.0, 1.0, 0.5) == pytest.approx(-h_lambda(2.0, 1.0, 0.5),
                                                         abs=1e-15)

    def test_vanishing_penalty_limit(self):
        assert h_lambda(3.0, 1.0, 1e-12) == pytest.approx(3.0, abs=1e-9)

    def test_magnitude_bounded_by_input(self):
        for x in (0.6, 1.0, 2.5, 10.0):
            assert abs(h_lambda(x, 1.0, 0.1)) <= x

    def test_domain_error_below_admissible_range(self):
        with pytest.raises(ValueError):
            h_lambda(0.01, 1.0, 1.0)

    def test_parameter_domain_errors(self):
        with pytest.raises(ValueError):
            h_lambda(2.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            h_lambda(2.0, 1.0, -0.5)


class TestProxScalar:
    def test_below_threshold_is_zero(self):
        p = make_threshold_params(1.0, 0.25)
        assert ts1_prox_scalar(0.4, p) == 0.0

    def test_at_threshold_is_zero(self):
        p = make_threshold_params(1.0, 0.25)
        assert ts1_prox_scalar(p.t, p) == 0.0
        assert ts1_prox_scalar(-p.t, p) == 0.0

    def test_above_threshold_is_h(self):
        p = make_threshold_params(1.0, 0.5)
        assert ts1_prox_scalar(2.0, p) == pytest.approx(
            h_lambda(2.0, 1.0, 0.5), abs=1e-15)

    def test_matches_grid_oracle_on_random_inputs(self):
        rng = np.random.default_rng(20240817)
        for _ in range(200):
            x = rng.uniform(-5.0, 5.0)
            a = rng.uniform(0.1, 100.0)
            lm = rng.uniform(0.01, 2.0)
            p = make_threshold_params(a, lm)
            y = ts1_prox_scalar(x, p)
            y_grid, f_grid = grid_prox_argmin(x, a, lm)
            assert abs(y - y_grid) <= 1e-3
            assert abs(prox_objective(y, x, a, lm) - f_grid) <= 1e-8

    def test_prox_objective_never_beaten_by_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.uniform(-4.0, 4.0)
            a = rng.uniform(0.2, 20.0)
            lm = rng.uniform(0.05, 1.5)
            p = make_threshold_params(a, lm)
            y = ts1_prox_scalar(x, p)
            _, f_grid = grid_prox_argmin(x, a, lm)
            assert prox_objective(y, x, a, lm) <= f_grid + 1e-8

    @given(x=st.floats(min_value=-50.0, max_value=50.0), a=positive_a,
           lm=positive_lm)
    @settings(max_examples=200)
    def test_shrinkage_and_oddness(self, x, a, lm):
        p = make_threshold_params(a, lm)
        y = ts1_prox_scalar(x, p)
        assert abs(y) <= abs(x) + 1e-12
        assert ts1_prox_scalar(-x, p) == pytest.approx(-y, abs=1e-12)

    def test_vector_input(self):
        p = make_threshold_params(1.0, 0.25)
        out = ts1_prox_scalar(np.array([0.1, -0.3, 2.0]), p)
        assert out[0] == 0.0 and out[1] == 0.0
        assert out[2] == pytest.approx(h_lambda(2.0, 1.0, 0.25), abs=1e-15)


class TestBoundaryBehaviorObservational:
    """Continuity at the threshold differs per regime; record, don't gate."""

    def test_subcritical_prox_is_continuous(self):
        p = make_threshold_params(1.0, 0.1)
        assert h_lambda(p.t, 1.0, 0.1) == pytest.approx(0.0, abs=1e-6)
        assert ts1_prox_scalar(p.t * (1 + 1e-9), p) < 1e-3

    def test_supercritical_prox_jumps(self):
        p = make_threshold_params(1.0, 1.0)
        jump = h_lambda(p.t, 1.0, 1.0)
        assert jump > 0.5  # lands near 1.0 for these parameters
        assert ts1_prox_scalar(p.t, p) == 0.0
        assert ts1_prox_scalar(p.t * (1 + 1e-9), p) == pytest.approx(jump, rel=1e-3)
