from dataclasses import replace

import numpy as np
import pytest

from ts1mc import solvers
from ts1mc.matrix import compute_svd, singular_values, threshold_spectrum
from ts1mc.problems import MaskedMatrix, gen_gaussian_lowrank, sample_uniform
from ts1mc.sampling import ObjectiveContext, SamplingOperator
from ts1mc.scalar import make_threshold_params, ts1_prox_scalar
from ts1mc.solvers import (LAMBDA_MU_FLOOR, Algorithm, KnownRank, RankEstimate,
                           SolverConfig, eigengap_from_sigma, resolve_a,
                           solve, ts1_it_step, ts1_s1_select_lambda,
                           ts1_s2_select_params)


def make_problem(m=50, n=50, r=3, sr=0.5, cov=0.0, seed=0):
    truth = gen_gaussian_lowrank(m, n, r, cov, seed)
    return truth, sample_uniform(truth, sr, seed + 1000)


class TestS1Selection:
    def test_arithmetic_example(self):
        sigma = np.zeros(5)
        sigma[0], sigma[1] = 2.0, 0.1  # sigma_r = 2, sigma_{r+1} = 0.1 at r=1
        sel = ts1_s1_select_lambda(sigma, r=1, mu=0.5, a=1.0)
        assert sel.a == 1.0
        assert sel.lambda_mu == pytest.approx(0.1 * 0.5, abs=1e-15)
        assert sel.t == pytest.approx(0.1, abs=1e-15)
        assert not sel.keep_boundary  # sub-critical

    def test_exact_rank_iterate_floors_lambda(self):
        sigma = np.array([3.0, 2.0, 0.0, 0.0])
        sel = ts1_s1_select_lambda(sigma, r=2, mu=0.5, a=1.0)
        assert sel.lambda_mu == pytest.approx(LAMBDA_MU_FLOOR, rel=1e-12)
        assert sel.t > 0.0

    def test_supercritical_branch(self):
        # sigma_{r+1} > a/2 forces the lam2 branch; threshold sits at sigma_r
        sigma = np.array([5.0, 3.0, 2.0, 1.0])
        sel = ts1_s1_select_lambda(sigma, r=2, mu=0.99, a=1.0)
        assert sel.keep_boundary  # super-critical
        assert sel.t == pytest.approx(3.0, abs=1e-12)
        lam2 = (1.0 + 2.0 * 3.0) ** 2 / (8.0 * 2.0 * 0.99)
        assert sel.lambda_mu == pytest.approx(lam2 * 0.99, rel=1e-12)

    def test_overflowing_weight_is_infinite(self):
        # (a + 2 sigma_r)^2 overflows to inf past ~1.3e154
        sigma = np.array([4e154, 3e154, 1e154])
        with np.errstate(over="ignore"):
            sel = ts1_s1_select_lambda(sigma, r=2, mu=0.99, a=1.0)
        assert sel.keep_boundary and sel.t == 3e154
        assert sel.lambda_mu == np.inf

    def test_threshold_separates_working_rank(self):
        rng = np.random.default_rng(6)
        from ts1mc.matrix import threshold_spectrum
        for _ in range(50):
            sigma = np.sort(rng.uniform(0.05, 10.0, size=8))[::-1]
            r = int(rng.integers(1, 7))
            if sigma[r - 1] - sigma[r] < 1e-3:
                continue
            g = threshold_spectrum(
                sigma, ts1_s1_select_lambda(sigma, r, mu=0.99, a=1.0))
            assert np.count_nonzero(g) == r

    def test_index_error(self):
        with pytest.raises(IndexError):
            ts1_s1_select_lambda(np.ones(3), r=3, mu=0.9, a=1.0)
        # sigma_0 does not exist; the super-critical branch must not read
        # sigma[-1] in its place
        with pytest.raises(IndexError):
            ts1_s1_select_lambda(np.array([5.0, 3.0, 0.5]), r=0, mu=0.99, a=1.0)


class TestS2Selection:
    def test_closed_form_example(self):
        sigma = np.array([4.0, 1.0, 0.5])
        sel = ts1_s2_select_params(sigma, r=1)
        assert sel.lambda_mu == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert sel.a == pytest.approx(2.0, rel=1e-12)
        assert sel.t == pytest.approx(1.0, abs=1e-15)
        assert not sel.keep_boundary

    def test_floor_on_exact_rank(self):
        sigma = np.array([4.0, 1.0, 0.0])
        sel = ts1_s2_select_params(sigma, r=2)
        assert sel.lambda_mu == LAMBDA_MU_FLOOR
        assert sel.t > 0.0
        # t = a / 2 is the critical threshold lambda_mu/2 + root/2, bit for bit
        root = np.sqrt(LAMBDA_MU_FLOOR ** 2 + 2.0 * LAMBDA_MU_FLOOR)
        assert sel.t == LAMBDA_MU_FLOOR / 2.0 + root / 2.0

    def test_critical_pairing_consistency(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            sigma = np.sort(rng.uniform(0.01, 8.0, size=6))[::-1]
            r = int(rng.integers(1, 5))
            sel = ts1_s2_select_params(sigma, r)
            p = make_threshold_params(sel.a, sel.lambda_mu)
            scale = max(p.t2, 1.0)
            assert abs(p.t2 - p.t3) <= 1e-10 * scale
            assert p.t == pytest.approx(sel.t, rel=1e-10)

    def test_index_error(self):
        with pytest.raises(IndexError):
            ts1_s2_select_params(np.ones(2), r=2)
        with pytest.raises(IndexError):
            ts1_s2_select_params(np.array([5.0, 3.0, 0.5]), r=0)


class TestThresholdRecord:
    def test_kernel_map_matches_the_scalar_prox(self):
        # Every record a policy can hand the kernel means the same map to
        # threshold_spectrum and to the scalar prox.
        rng = np.random.default_rng(5)
        boundaries = set()
        for trial in range(200):
            sigma = np.sort(rng.uniform(0.0, 4.0, size=8))[::-1]
            r = int(rng.integers(1, 6))
            if trial % 5 == 0:
                sigma[r:] = 0.0  # exact rank: the LAMBDA_MU_FLOOR branches
            a = float(rng.choice([0.5, 1.0, 10.0]))
            records = [make_threshold_params(a, rng.uniform(0.01, 2.0)),
                       ts1_s1_select_lambda(sigma, r, 0.99, a),
                       ts1_s2_select_params(sigma, r)]
            for th in records:
                assert np.array_equal(threshold_spectrum(sigma, th),
                                      ts1_prox_scalar(sigma, th))
            boundaries.add(records[1].keep_boundary)
        assert boundaries == {False, True}


class TestEstimateRank:
    def test_detects_gap_at_true_rank(self):
        # numerically rank 10: tail kept just above the eigenvalue floor
        sigma = np.concatenate([np.linspace(3.0, 1.0, 10), np.full(8, 1e-13)])
        rng = np.random.default_rng(0)
        from conftest import random_orthogonal
        u = random_orthogonal(rng, 18)
        v = random_orthogonal(rng, 18)
        x = (u * sigma) @ v.T
        new_k, adjusted, tau = eigengap_from_sigma(singular_values(x), k=15,
                                                   r_min=1)
        assert adjusted and new_k == 10 and tau > 10.0

    def test_flat_spectrum_not_adjusted(self):
        x = np.eye(12) * 2.0
        new_k, adjusted, tau = eigengap_from_sigma(singular_values(x), k=8,
                                                   r_min=1)
        assert not adjusted and new_k == 8
        # all quotients equal 1, so tau = count / (count - 1), near 1
        assert tau == pytest.approx(8 / 7, rel=1e-12)

    def test_tau_boundary_is_strict(self):
        # leading value chosen so the float-computed quotients are
        # (20/3, 1, 1) and tau = 3 * (20/3) / 2 lands on exactly 10.0,
        # which must NOT trigger an adjustment (strictly greater only)
        c = float.fromhex("0x1.4a7e9cb8a3491p+1")
        sigma = np.array([c, 1.0, 1.0, 1.0])
        new_k, adjusted, tau = eigengap_from_sigma(sigma, k=3, r_min=1)
        assert tau == 10.0
        assert not adjusted and new_k == 3

    def test_floored_tail_excluded(self):
        # exact zero tail would otherwise win the argmax with an inf quotient
        sigma = np.array([4.0, 3.9, 3.8, 3.7, 0.0, 0.0])
        new_k, adjusted, tau = eigengap_from_sigma(sigma, k=4, r_min=1)
        assert not adjusted

    def test_bounds_checked(self):
        with pytest.raises(IndexError):
            eigengap_from_sigma(np.ones(5), k=5, r_min=1)
        with pytest.raises(IndexError):
            eigengap_from_sigma(np.ones(5), k=2, r_min=2)


class TestSingleSteps:
    def setup_method(self):
        truth, masked = make_problem(30, 30, 2, 0.6, seed=5)
        self.ctx = ObjectiveContext(op=masked.op, b=masked.values, lam=0.5,
                                    mu=0.99, a=1.0)
        self.masked = masked
        self.x0 = masked.observed_fill()

    @pytest.mark.parametrize("step, alg", [(ts1_it_step, Algorithm.TS1_IT)])
    def test_steps_are_the_iterates_solve_returns(self, step, alg):
        # tol far below any residual reached in 25 steps: solve must not stop
        x = self.x0
        for _ in range(25):
            x = step(x, self.ctx)
        rep = solve(self.masked, SolverConfig(algorithm=alg, lam=self.ctx.lam,
                                              a=self.ctx.a, mu=self.ctx.mu,
                                              tol=1e-300, max_iters=25))
        assert rep.iterations == 25 and not rep.converged
        assert rep.x_opt.tobytes() == x.tobytes()

    def test_fixed_point_invariance(self):
        x = self.x0
        for _ in range(3000):
            x_next = ts1_it_step(x, self.ctx)
            if np.linalg.norm(x_next - x) < 1e-12:
                x = x_next
                break
            x = x_next
        moved = np.linalg.norm(ts1_it_step(x, self.ctx) - x)
        assert moved / max(np.linalg.norm(x), 1.0) <= 1e-10

    def test_surrogate_decreases_each_step(self):
        x = self.x0
        for _ in range(60):
            x_next = ts1_it_step(x, self.ctx)
            assert (self.ctx.c_lambda_mu(x_next, x)
                    <= self.ctx.c_lambda_mu(x, x) + 1e-9)
            x = x_next

    def test_objective_decreases_along_run(self):
        x = self.x0
        prev = self.ctx.c_lambda(x)
        for _ in range(200):
            x = ts1_it_step(x, self.ctx)
            cur = self.ctx.c_lambda(x)
            assert cur <= prev + 1e-8
            prev = cur

    def nuclear_step(self, lam):
        """solve's first nuclear iterate; solve starts from ``self.x0``."""
        return solve(self.masked, SolverConfig(algorithm=Algorithm.NUCLEAR,
                                               lam=lam, mu=self.ctx.mu,
                                               max_iters=1)).x_opt

    def test_nuclear_kills_everything_at_huge_lam(self):
        assert np.abs(self.nuclear_step(1e6)).max() <= 1e-8

    def test_nuclear_with_zero_lam_is_gradient_step(self):
        assert np.allclose(self.nuclear_step(0.0), self.ctx.b_mu_step(self.x0),
                           atol=1e-10)


class TestSolve:
    def test_fully_observed_recovers_exactly(self):
        truth = gen_gaussian_lowrank(20, 20, 3, 0.0, seed=2)
        masked = sample_uniform(truth, 1.0, seed=3)
        for alg in (Algorithm.TS1_S1, Algorithm.TS1_S2):
            rep = solve(masked, SolverConfig(algorithm=alg, rank=KnownRank(3)))
            err = np.linalg.norm(rep.x_opt - truth.matrix) \
                / np.linalg.norm(truth.matrix)
            assert rep.converged and rep.iterations <= 5
            assert err <= 1e-9

    def test_known_rank_recovery_and_rank_cap(self):
        truth, masked = make_problem(60, 60, 4, 0.5, seed=9)
        rep = solve(masked, SolverConfig(algorithm=Algorithm.TS1_S2,
                                         rank=KnownRank(4)))
        assert rep.converged
        err = np.linalg.norm(rep.x_opt - truth.matrix) \
            / np.linalg.norm(truth.matrix)
        assert err < 5e-4
        sigma = singular_values(rep.x_opt)
        assert int(np.sum(sigma > 1e-12)) == 4

    def test_nuclear_baseline_easy_instance(self):
        truth, masked = make_problem(50, 50, 2, 0.6, seed=7)
        rep = solve(masked, SolverConfig(algorithm=Algorithm.NUCLEAR, lam=0.15,
                                         max_iters=500))
        err = np.linalg.norm(rep.x_opt - truth.matrix) \
            / np.linalg.norm(truth.matrix)
        assert rep.iterations <= 500 and err < 1e-2

    def test_rank_estimate_adjusts_once(self):
        truth, masked = make_problem(60, 60, 4, sr=0.5, seed=12)
        rep = solve(masked, SolverConfig(algorithm=Algorithm.TS1_S1,
                                         rank=RankEstimate(k=8, r_min=1)))
        assert rep.rank_adjusted and rep.rank_estimate == 4
        assert rep.tau > 10.0
        # the working-rank trace drops from 8 to 4 exactly once
        ranks = [h.rank for h in rep.history]
        changes = sum(1 for r1, r2 in zip(ranks, ranks[1:]) if r1 != r2)
        assert changes <= 1

    @pytest.mark.parametrize("algorithm", [Algorithm.TS1_S1, Algorithm.TS1_S2])
    def test_rank_estimate_only_when_estimating(self, algorithm):
        _, masked = make_problem(40, 40, 3, sr=0.5, seed=3)
        known = solve(masked, SolverConfig(algorithm=algorithm,
                                           rank=KnownRank(3), max_iters=20))
        assert known.rank_estimate is None and not known.rank_adjusted
        assert {h.rank for h in known.history} == {3}
        estimated = solve(masked, SolverConfig(
            algorithm=algorithm, rank=RankEstimate(k=5), max_iters=20))
        assert type(estimated.rank_estimate) is int
        assert estimated.rank_estimate == estimated.history[-1].rank

    def test_converged_implies_residual_below_tol(self):
        truth, masked = make_problem(40, 40, 3, 0.5, seed=20)
        cfg = SolverConfig(algorithm=Algorithm.TS1_S2, rank=KnownRank(3),
                           tol=1e-6)
        rep = solve(masked, cfg)
        assert rep.converged
        assert rep.final_params.residual <= cfg.tol

    def test_fixed_point_certificate(self):
        from ts1mc.matrix import ts1_prox_matrix
        truth, masked = make_problem(50, 50, 3, 0.5, seed=30)
        for alg in (Algorithm.TS1_S1, Algorithm.TS1_S2):
            cfg = SolverConfig(algorithm=alg, rank=KnownRank(3), tol=1e-6)
            rep = solve(masked, cfg)
            assert rep.converged
            final = rep.final_params
            ctx = ObjectiveContext(op=masked.op, b=masked.values,
                                   lam=final.lambda_mu / cfg.mu, mu=cfg.mu,
                                   a=final.a)
            image = ts1_prox_matrix(ctx.b_mu_step(rep.x_opt), final.a,
                                    final.lambda_mu)
            resid = np.linalg.norm(rep.x_opt - image) \
                / np.linalg.norm(rep.x_opt)
            assert resid <= 10 * cfg.tol

    def test_determinism(self):
        truth, masked = make_problem(40, 40, 3, 0.5, seed=21)
        cfg = SolverConfig(algorithm=Algorithm.TS1_S2, rank=KnownRank(3))
        rep1 = solve(masked, cfg)
        rep2 = solve(masked, cfg)
        assert rep1.iterations == rep2.iterations
        assert np.array_equal(rep1.x_opt, rep2.x_opt)

    @pytest.mark.parametrize("bad_value, change", [
        (np.inf, {}), (np.nan, {}),
        (None, {"algorithm": Algorithm.NUCLEAR, "lam": -1.0}),
        (None, {"algorithm": Algorithm.TS1_IT, "lam": 0.5, "a": 0.0}),
        (None, {"algorithm": Algorithm.TS1_S1, "a": -1.0}),
        (None, {"tol": np.nan}),
    ])
    def test_invalid_input_rejected_at_the_boundary(self, bad_value, change):
        truth, masked = make_problem(20, 20, 2, 0.6, seed=1)
        if bad_value is not None:
            values = masked.values.copy()
            values[3] = bad_value
            masked = replace(masked, values=values)
        cfg = dict(algorithm=Algorithm.TS1_S2, rank=KnownRank(2))
        cfg.update(change)
        with pytest.raises(ValueError, match="finite|lam must|tol must"):
            solve(masked, SolverConfig(**cfg))

    @pytest.mark.parametrize("change", [
        {"algorithm": Algorithm.TS1_S1, "rank": KnownRank(2), "a": np.inf},
        {"algorithm": Algorithm.TS1_IT, "lam": 0.1, "a": np.inf},
        {"algorithm": Algorithm.TS1_IT, "lam": np.inf, "a": 1.0},
        {"algorithm": Algorithm.NUCLEAR, "lam": np.inf},
    ], ids=["ts1-s1-a", "ts1-it-a", "ts1-it-lam", "nuclear-lam"])
    def test_non_finite_penalty_rejected_when_built(self, change):
        # the paper takes a in (0, inf); an infinite lam or a gives a NaN
        # threshold that cuts every singular value
        with pytest.raises(ValueError, match="=inf"):
            SolverConfig(**change)

    def test_config_validation(self):
        truth, masked = make_problem(20, 20, 2, 0.6, seed=1)
        with pytest.raises(ValueError):
            solve(masked, SolverConfig(algorithm=Algorithm.TS1_S2, rank=None))
        with pytest.raises(ValueError):
            solve(masked, SolverConfig(algorithm=Algorithm.TS1_S2,
                                       rank=KnownRank(20)))
        with pytest.raises(ValueError):
            solve(masked, SolverConfig(algorithm=Algorithm.TS1_IT, lam=None))
        for lam, mu in [(0.0, 0.99), (5e-324, 0.5)]:  # the latter underflows
            with pytest.raises(ValueError, match=r"ts1-it requires lam \* mu > 0"):
                SolverConfig(algorithm=Algorithm.TS1_IT, lam=lam, mu=mu)
        with pytest.raises(ValueError):
            solve(masked, SolverConfig(algorithm=Algorithm.NUCLEAR, lam=0.1,
                                       mu=1.0))
        with pytest.raises(ValueError):
            solve(masked, SolverConfig(algorithm=Algorithm.TS1_S1,
                                       rank=RankEstimate(k=19, r_min=19)))


def dense_svd(x, k=None):
    """``compute_svd`` as the dense path calls it: every triplet, whatever k."""
    return compute_svd(x)


class TestTruncatedSpectrum:
    """ts1-s1/ts1-s2 reconstruct from the top rank + 1 triplets; the dense
    path, which computes them all, is the reference."""

    @pytest.mark.parametrize("algorithm", [Algorithm.TS1_S1, Algorithm.TS1_S2])
    @pytest.mark.parametrize("rank", [KnownRank(3), RankEstimate(k=4)],
                             ids=["known-rank", "rank-estimate"])
    def test_matches_the_dense_path_on_fixed_seeds(self, monkeypatch,
                                                   algorithm, rank):
        cfg = SolverConfig(algorithm=algorithm, rank=rank, max_iters=300)
        asked, spectrum_gaps, adjusted = [], [], []

        def checked_svd(x, k=None):
            u, sigma, vt = compute_svd(x, k)
            full = singular_values(x)
            asked.append(k)
            spectrum_gaps.append(
                np.abs(sigma - full[:sigma.size]).max() / full[0])
            return u, sigma, vt

        for seed in range(10):
            truth, masked = make_problem(30, 30, 3, 0.6, seed=seed)
            monkeypatch.setattr(solvers, "compute_svd", checked_svd)
            fast = solve(masked, cfg)
            monkeypatch.setattr(solvers, "compute_svd", dense_svd)
            dense = solve(masked, cfg)
            assert fast.iterations == dense.iterations
            assert ([h.rank for h in fast.history]
                    == [h.rank for h in dense.history])
            assert fast.rank_estimate == dense.rank_estimate
            assert fast.rank_adjusted == dense.rank_adjusted
            # tau is a ratio of squared tail singular values, which carry
            # the SVDs' absolute rounding error
            assert fast.tau == pytest.approx(dense.tau, rel=1e-8)
            top = fast.history[-1].rank + 1
            s_fast = singular_values(fast.x_opt)[:top]
            s_dense = singular_values(dense.x_opt)[:top]
            assert np.abs(s_fast - s_dense).max() <= 1e-10 * s_dense[0]
            adjusted.append(fast.rank_adjusted)
        assert asked[0] == (rank.k if isinstance(rank, RankEstimate)
                            else rank.r) + 1
        assert max(spectrum_gaps) <= 1e-10
        assert any(adjusted) == isinstance(rank, RankEstimate)
        monkeypatch.undo()
        assert np.array_equal(solve(masked, cfg).x_opt, fast.x_opt)

    def test_tie_at_the_cut_takes_the_dense_step(self, monkeypatch):
        # sigma = (3, 2, 2, 2, 1, 0, 0); ts1-s1 at r = 2 is super-critical
        # (sigma_3 > a/2), so it keeps every sigma >= sigma_2 = 2, including
        # two tied values beyond the three triplets it asks for
        x = np.zeros((8, 7))
        x[np.arange(5), np.arange(5)] = [3.0, 2.0, 2.0, 2.0, 1.0]
        op = SamplingOperator(x.shape, np.arange(x.size))
        masked = MaskedMatrix(op=op, values=op.apply(x))
        cfg = SolverConfig(algorithm=Algorithm.TS1_S1, rank=KnownRank(2),
                           a=1.0, max_iters=1)
        asked = []

        def recorded_svd(y, k=None):
            asked.append(k)
            return compute_svd(y, k)

        monkeypatch.setattr(solvers, "compute_svd", recorded_svd)
        fast = solve(masked, cfg)
        assert asked == [3, None]  # the truncated call, then the redo
        assert fast.final_params.t == 2.0
        monkeypatch.setattr(solvers, "compute_svd", dense_svd)
        dense = solve(masked, cfg)
        assert np.array_equal(fast.x_opt, dense.x_opt)
        assert int(np.sum(singular_values(fast.x_opt) > 1e-12)) == 4


class TestAPolicy:
    def test_known_rank_default(self):
        truth, masked = make_problem(30, 30, 2, 0.5, seed=4)
        cfg = SolverConfig(algorithm=Algorithm.TS1_S1, rank=KnownRank(2))
        assert resolve_a(cfg, masked) == 1.0

    def test_estimate_low_fr_uses_large_a(self):
        truth, masked = make_problem(100, 100, 5, sr=0.4, seed=4)
        cfg = SolverConfig(algorithm=Algorithm.TS1_S1,
                           rank=RankEstimate(k=8, r_min=1))
        assert masked.descriptors.fr < 0.6
        assert resolve_a(cfg, masked) == 1000.0

    def test_estimate_high_fr_uses_small_a(self):
        truth, masked = make_problem(100, 100, 16, sr=0.4, seed=4)
        cfg = SolverConfig(algorithm=Algorithm.TS1_S1,
                           rank=RankEstimate(k=24, r_min=1))
        assert masked.descriptors.fr >= 0.6
        assert resolve_a(cfg, masked) == 10.0

    def test_missing_descriptors_fall_back(self):
        from ts1mc.problems import MaskedMatrix
        truth, masked = make_problem(30, 30, 2, 0.5, seed=4)
        bare = MaskedMatrix(op=masked.op, values=masked.values, descriptors=None)
        cfg = SolverConfig(algorithm=Algorithm.TS1_S1,
                           rank=RankEstimate(k=5, r_min=1))
        assert resolve_a(cfg, bare) == 10.0

    def test_explicit_a_wins(self):
        truth, masked = make_problem(30, 30, 2, 0.5, seed=4)
        cfg = SolverConfig(algorithm=Algorithm.TS1_S1, rank=KnownRank(2), a=7.5)
        assert resolve_a(cfg, masked) == 7.5
