import math

import numpy as np
import pytest

from ts1mc.metrics import evaluate


class TestRelativeError:
    def test_exact_recovery(self):
        m = np.arange(6.0).reshape(2, 3) + 1
        assert evaluate(m, m).rel_err == 0.0

    def test_doubling(self):
        m = np.arange(6.0).reshape(2, 3) + 1
        assert evaluate(2 * m, m).rel_err == pytest.approx(1.0, rel=1e-12)

    def test_constructed_perturbation(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((8, 8))
        e = rng.standard_normal((8, 8))
        e *= 0.01 * np.linalg.norm(m) / np.linalg.norm(e)
        assert evaluate(m + e, m).rel_err == pytest.approx(0.01, rel=1e-12)

    def test_scale_covariance(self):
        rng = np.random.default_rng(1)
        x, m = rng.standard_normal((5, 5)), rng.standard_normal((5, 5))
        assert evaluate(3.7 * x, 3.7 * m).rel_err == pytest.approx(
            evaluate(x, m).rel_err, rel=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            evaluate(np.ones((2, 2)), np.zeros((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(np.ones((2, 2)), np.ones((2, 3)))


class TestMse:
    def test_exact(self):
        m = np.ones((3, 3))
        assert evaluate(m, m).mse == 0.0

    # evaluate rejects a zero reference, so the references are nonzero
    def test_single_entry(self):
        met = evaluate(np.array([[1.1]]), np.array([[1.0]]))
        assert met.mse == pytest.approx(0.01)

    def test_uniform_offset(self):
        m = np.ones((4, 5))
        assert evaluate(m + 0.3, m).mse == pytest.approx(0.09, rel=1e-12)


class TestPsnr:
    # evaluate's PSNR at peak 1; a zero reference has no relative error,
    # so the truths here are nonzero.
    def test_forty_db(self):
        m = np.ones((10, 10))
        x = m.copy()
        x[0, 0] += 0.1  # mse = 1e-4 over 100 entries
        assert evaluate(x, m).psnr == pytest.approx(40.0, abs=1e-9)

    def test_twenty_db(self):
        m = np.ones((2, 2))
        assert evaluate(m + 0.1, m).psnr == pytest.approx(20.0, abs=1e-9)

    def test_exact_recovery_is_infinite(self):
        m = np.ones((3, 3))
        assert evaluate(m, m).psnr == math.inf

    def test_overflowing_error_is_minus_infinity(self):
        # the squared error of a finite pair can overflow; PSNR then has
        # no finite value, and the trial is a failure, not an exception
        m = np.ones((3, 3))
        with np.errstate(over="ignore"):
            met = evaluate(m + 1e200, m)
        assert met.mse == math.inf
        assert met.psnr == -math.inf
        assert not met.success

    def test_monotone_in_mse(self):
        m = np.ones((4, 4))
        values = [evaluate(m + d, m).psnr for d in (0.01, 0.05, 0.2, 0.7)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestEvaluate:
    def test_success_threshold(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((10, 10))
        e = rng.standard_normal((10, 10))
        small = m + e * (1e-3 * np.linalg.norm(m) / np.linalg.norm(e))
        big = m + e * (1e-2 * np.linalg.norm(m) / np.linalg.norm(e))
        assert evaluate(small, m).success
        assert not evaluate(big, m).success

    def test_fields_consistent(self):
        rng = np.random.default_rng(4)
        x, m = rng.standard_normal((5, 5)), rng.standard_normal((5, 5))
        met = evaluate(x, m)
        assert met.mse == pytest.approx(np.mean((x - m) ** 2), rel=1e-15)
        assert met.psnr == pytest.approx(10 * math.log10(1.0 / met.mse),
                                         rel=1e-12)
