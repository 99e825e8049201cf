import numpy as np
import pytest
from scipy import stats

from ts1mc.matrix import singular_values
from ts1mc.problems import (add_noise, fr_display, gen_gaussian_lowrank,
                            image_to_lowrank_truth, make_descriptors,
                            max_recoverable_rank, sample_uniform,
                            synthetic_test_image)


class TestGaussianLowrank:
    def test_uncorrelated_factor_moments(self):
        # replay the generator's factor draw and check it both matches the
        # product and has identity sample covariance over 10^4 rows
        m, r = 10_000, 4
        truth = gen_gaussian_lowrank(m, r, r, cov=0.0, seed=0)
        rng = np.random.default_rng(0)
        ml = rng.standard_normal((m, r))
        mr = rng.standard_normal((r, r))
        assert np.array_equal(truth.matrix, ml @ mr.T)
        cov = ml.T @ ml / m
        assert np.abs(cov - np.eye(r)).max() < 0.1

    def test_rank_one_outer_product(self):
        truth = gen_gaussian_lowrank(30, 20, 1, cov=0.0, seed=3)
        sigma = singular_values(truth.matrix)
        assert sigma[1] <= 1e-12 * sigma[0]

    def test_correlated_columns(self):
        m, r = 10_000, 2
        truth = gen_gaussian_lowrank(m, r, r, cov=0.5, seed=1)
        chol = np.linalg.cholesky(0.5 * np.eye(2) + 0.5 * np.ones((2, 2)))
        rng = np.random.default_rng(1)
        ml = rng.standard_normal((m, r)) @ chol.T
        mr = rng.standard_normal((r, r)) @ chol.T
        assert np.array_equal(truth.matrix, ml @ mr.T)
        corr = np.corrcoef(ml.T)
        assert corr[0, 1] == pytest.approx(0.5, abs=0.05)

    def test_correlated_generation_matches_requested_rank(self):
        truth = gen_gaussian_lowrank(40, 30, 5, cov=0.5, seed=9)
        sigma = singular_values(truth.matrix)
        assert truth.rank == 5
        assert sigma[5] <= 1e-8 * sigma[0]

    def test_reproducible(self):
        a = gen_gaussian_lowrank(25, 25, 3, cov=0.3, seed=17)
        b = gen_gaussian_lowrank(25, 25, 3, cov=0.3, seed=17)
        assert np.array_equal(a.matrix, b.matrix)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gen_gaussian_lowrank(10, 10, 0, 0.0, 0)
        with pytest.raises(ValueError):
            gen_gaussian_lowrank(10, 10, 2, 1.0, 0)
        with pytest.raises(ValueError):
            gen_gaussian_lowrank(10, 10, 2, -0.1, 0)


class TestSampleUniform:
    def test_full_observation(self):
        truth = gen_gaussian_lowrank(10, 8, 2, 0.0, seed=0)
        masked = sample_uniform(truth, 1.0, seed=1)
        assert masked.p == 80
        assert masked.descriptors.fr == pytest.approx(2 * 16 / 80)
        assert np.allclose(masked.observed_fill(), truth.matrix)

    def test_table_fr_values(self):
        truth = gen_gaussian_lowrank(100, 100, 5, 0.0, seed=0)
        masked = sample_uniform(truth, 0.4, seed=1)
        assert masked.p == 4000
        assert masked.descriptors.fr == pytest.approx(0.24375, abs=0)
        assert fr_display(5, 100, 100, 4000) == "0.2437"
        truth10 = gen_gaussian_lowrank(100, 100, 10, 0.0, seed=0)
        masked10 = sample_uniform(truth10, 0.4, seed=1)
        assert fr_display(10, 100, 100, masked10.p) == "0.4750"

    def test_reproducible_mask(self):
        truth = gen_gaussian_lowrank(20, 20, 2, 0.0, seed=0)
        m1 = sample_uniform(truth, 0.3, seed=5)
        m2 = sample_uniform(truth, 0.3, seed=5)
        assert np.array_equal(m1.op.flat, m2.op.flat)
        assert np.array_equal(m1.values, m2.values)

    def test_descriptor_identities(self):
        d = make_descriptors(100, 100, 5, 4000)
        assert d.sr == 4000 / (100 * 100)
        assert d.fr == 5 * 195 / 4000
        assert d.r_m == max_recoverable_rank(100, 100, 4000)

    def test_sampling_uniformity_smoke(self):
        # statistical smoke test, 0.001 level chi-square on entry counts
        truth = gen_gaussian_lowrank(5, 5, 1, 0.0, seed=0)
        counts = np.zeros(25)
        for i in range(10_000):
            masked = sample_uniform(truth, 0.2, seed=i)
            counts[masked.op.flat] += 1
        expected = counts.sum() / 25
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < stats.chi2.ppf(0.999, df=24)

    def test_sr_domain(self):
        truth = gen_gaussian_lowrank(10, 10, 2, 0.0, seed=0)
        with pytest.raises(ValueError):
            sample_uniform(truth, 0.0, seed=0)
        with pytest.raises(ValueError):
            sample_uniform(truth, 1.1, seed=0)


class TestMaxRecoverableRank:
    def test_known_value(self):
        assert max_recoverable_rank(100, 100, 4000) == 22

    def test_zero_observations(self):
        assert max_recoverable_rank(100, 100, 0) == 0

    def test_largest_rank_with_fr_at_most_one(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = int(rng.integers(10, 120))
            n = int(rng.integers(10, 120))
            p = int(rng.integers(1, m * n + 1))
            rm = max_recoverable_rank(m, n, p)
            if rm >= 1:
                assert rm * (m + n - rm) <= p
            if rm + 1 <= min(m, n):
                assert (rm + 1) * (m + n - rm - 1) > p


class TestFrDisplay:
    def test_truncation_not_rounding(self):
        # 0.24375 and 0.69375 truncate down; binary rounding must not leak in
        assert fr_display(5, 100, 100, 4000) == "0.2437"
        assert fr_display(15, 100, 100, 4000) == "0.6937"
        assert fr_display(18, 100, 100, 4000) == "0.8190"
        assert fr_display(9, 100, 100, 4000) == "0.4297"


class TestAddNoise:
    def test_zero_noise_is_identity(self):
        truth = gen_gaussian_lowrank(15, 15, 2, 0.0, seed=0)
        assert add_noise(truth, 0.0, seed=1) is truth

    def test_exact_relative_perturbation(self):
        truth = gen_gaussian_lowrank(40, 30, 3, 0.0, seed=0)
        for sigma in (0.01, 0.2, 1.5):
            noisy = add_noise(truth, sigma, seed=2)
            rel = np.linalg.norm(noisy.matrix - truth.matrix) \
                / np.linalg.norm(truth.matrix)
            assert rel == pytest.approx(sigma, rel=1e-12)

    def test_negative_sigma_rejected(self):
        truth = gen_gaussian_lowrank(10, 10, 2, 0.0, seed=0)
        with pytest.raises(ValueError):
            add_noise(truth, -0.1, seed=0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_nonfinite_sigma_rejected(self, sigma):
        truth = gen_gaussian_lowrank(10, 10, 2, 0.0, seed=0)
        with pytest.raises(ValueError, match="finite"):
            add_noise(truth, sigma, seed=0)


class TestImageTruth:
    def test_full_rank_identity(self):
        img = synthetic_test_image(32, 40)
        truth = image_to_lowrank_truth(img, 32)
        assert np.abs(truth.matrix - img).max() <= 1e-8

    def test_rank_one_outer_product(self):
        img = synthetic_test_image(24, 24)
        truth = image_to_lowrank_truth(img, 1)
        sigma = singular_values(truth.matrix)
        assert sigma[1] <= 1e-10 * sigma[0]

    def test_eckart_young_identity(self):
        img = synthetic_test_image(48, 48)
        sigma = singular_values(img)
        for k in (3, 10):
            truth = image_to_lowrank_truth(img, k)
            lhs = np.linalg.norm(img - truth.matrix) ** 2
            rhs = float(np.sum(sigma[k:] ** 2))
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("bad", [255.0, 1.5, -0.1, np.nan])
    def test_out_of_range_pixels_rejected(self, bad):
        # 8-bit data must be scaled by the reader (read_pgm), not guessed at
        img = synthetic_test_image(16, 16)
        img[3, 4] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            image_to_lowrank_truth(img, 4)

    def test_rank_bounds(self):
        img = synthetic_test_image(16, 16)
        with pytest.raises(ValueError):
            image_to_lowrank_truth(img, 0)
        with pytest.raises(ValueError):
            image_to_lowrank_truth(img, 17)


class TestSyntheticImage:
    def test_range_and_determinism(self):
        a = synthetic_test_image(64, 64)
        b = synthetic_test_image(64, 64)
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 1.0

    def test_spectrum_decays(self):
        sigma = singular_values(synthetic_test_image(128, 128))
        assert sigma[0] > 10 * sigma[10]
