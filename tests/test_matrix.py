import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import svd
from scipy.sparse.linalg import svds

from conftest import random_orthogonal
from ts1mc import matrix
from ts1mc.matrix import (compute_svd, ky_fan_norm, partial_trace,
                          singular_values, threshold_spectrum, ts1_penalty,
                          ts1_prox_matrix)
from ts1mc.scalar import make_threshold_params, rho_a, ts1_prox_scalar


def ts1_of(x, a):
    return ts1_penalty(singular_values(x), a)


class TestSvdFactors:
    def test_invariants_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for shape in [(6, 9), (9, 6), (7, 7)]:
            x = rng.standard_normal(shape)
            u, sigma, vt = compute_svd(x)
            assert np.all(np.diff(sigma) <= 0)
            assert np.all(sigma >= 0)
            k = sigma.size
            assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-8
            assert np.abs(vt @ vt.T - np.eye(k)).max() <= 1e-8
            rel = np.linalg.norm((u * sigma) @ vt - x) / max(np.linalg.norm(x), 1.0)
            assert rel <= 1e-8

    def test_truncated_factors_are_the_top_of_the_dense_svd(self):
        rng = np.random.default_rng(1)
        for shape, k in [((40, 30), 4), ((30, 40), 1), ((25, 25), 24)]:
            x = rng.standard_normal(shape)
            u, sigma, vt = compute_svd(x, k)
            full = singular_values(x)
            assert u.shape == (shape[0], k) and vt.shape == (k, shape[1])
            assert np.all(np.diff(sigma) <= 0)
            assert np.abs(sigma - full[:k]).max() <= 1e-12 * full[0]
            assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-10
            assert np.abs(vt @ vt.T - np.eye(k)).max() <= 1e-10
            # Eckart-Young: the rank-k remainder carries the dense tail
            assert np.linalg.norm(x - (u * sigma) @ vt) == pytest.approx(
                np.linalg.norm(full[k:]), rel=1e-10)
            again = compute_svd(x, k)
            assert all(np.array_equal(p, q) for p, q in zip(again, (u, sigma, vt)))

    def test_propack_failure_falls_back_to_the_dense_top_k(self, monkeypatch):
        def no_convergence(*args):
            return -1  # PROPACK's info: budget spent before k converged

        x = np.random.default_rng(4).standard_normal((8, 6))
        u, sigma, vt = compute_svd(x)
        monkeypatch.setattr(matrix, "_dlansvd", no_convergence)
        top_u, top_sigma, top_vt = compute_svd(x, 2)
        assert np.array_equal(top_u, u[:, :2])
        assert np.array_equal(top_sigma, sigma[:2])
        assert np.array_equal(top_vt, vt[:2])

    @pytest.mark.parametrize("shape, rank, k, noise", [
        ((100, 100), 5, 6, 0.0), ((100, 100), 15, 16, 0.0),
        ((128, 128), 10, 11, 0.1), ((150, 60), 4, 5, 0.0),
        ((60, 150), 4, 5, 0.0)])
    def test_truncated_svd_is_propack_on_the_bare_array(self, shape, rank, k,
                                                        noise):
        # The operator handed to PROPACK must keep scipy's arithmetic for a
        # dense array bit for bit, and must build and run without warnings.
        rng = np.random.default_rng(k)
        x = (rng.standard_normal((shape[0], rank))
             @ rng.standard_normal((rank, shape[1]))
             + noise * rng.standard_normal(shape))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = compute_svd(x, k)
            u, sigma, vt = svds(x, k, solver="propack",
                                rng=np.random.default_rng(matrix.PROPACK_SEED))
        order = np.argsort(-sigma, kind="stable")
        for p, q in zip(got, (u[:, order], sigma[order], vt[order])):
            assert np.array_equal(p, q)

    def test_propack_order_is_handed_on(self):
        # PROPACK returns sigma nonincreasing and svds lists its triplets
        # reversed; asked past the rank, the zero tail ties exactly, and
        # the tied triplets keep PROPACK's order too
        rng = np.random.default_rng(5)
        low = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 40))
        for x, k in [(rng.standard_normal((50, 40)), 8), (low, 15)]:
            got = compute_svd(x, k)
            u, sigma, vt = svds(x, k, solver="propack",
                                rng=np.random.default_rng(matrix.PROPACK_SEED))
            for p, q in zip(got, (u[:, ::-1], sigma[::-1], vt[::-1])):
                assert np.array_equal(p, q)
            assert np.all(np.diff(got[1]) <= 0)
        assert np.count_nonzero(got[1]) == 3

    def test_interleaved_calls_repeat_fresh_calls(self):
        # PROPACK writes into the option and generator arrays it is handed;
        # no call may leave state that changes a later one, at any shape.
        rng = np.random.default_rng(6)
        cases = [(rng.standard_normal((60, 40)), 5),
                 (rng.standard_normal((40, 60)), 3),
                 (rng.standard_normal((60, 50)), 7),
                 (100 * rng.standard_normal((60, 40)), 5)]
        fresh = [compute_svd(x, k) for x, k in cases]
        for i in [3, 0, 2, 1, 0, 3, 1, 2, 2, 0]:
            got = compute_svd(*cases[i])
            assert all(np.array_equal(p, q) for p, q in zip(got, fresh[i]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_rejected_on_both_paths(self, bad):
        x = np.random.default_rng(0).standard_normal((30, 30))
        x[3, 4] = bad
        for k in (5, None):
            with pytest.raises(ValueError, match="must not contain infs or NaNs"):
                compute_svd(x, k)
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            singular_values(x)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_rejected(self, k):
        # k = 0 would reach PROPACK, whose LAPACK call kills the process
        x = np.random.default_rng(0).standard_normal((30, 30))
        with pytest.raises(ValueError, match=f"k={k}"):
            compute_svd(x, k)

    def test_k_at_full_rank_is_the_dense_svd(self):
        x = np.random.default_rng(2).standard_normal((9, 6))
        dense = compute_svd(x)
        for k in (6, 7):
            assert all(np.array_equal(p, q)
                       for p, q in zip(compute_svd(x, k), dense))

    def test_gesdd_failure_falls_back_to_gesvd(self, monkeypatch):
        routines = []
        lapack = matrix._flapack

        def gesdd_fails(*args, **kwargs):
            routines.append("gesdd")
            return (*lapack.dgesdd(*args, **kwargs)[:3], 1)  # info > 0

        def gesvd(*args, **kwargs):
            routines.append("gesvd")
            return lapack.dgesvd(*args, **kwargs)

        monkeypatch.setattr(matrix, "_flapack", SimpleNamespace(
            dgesdd=gesdd_fails, dgesdd_lwork=lapack.dgesdd_lwork,
            dgesvd=gesvd, dgesvd_lwork=lapack.dgesvd_lwork))
        x = np.random.default_rng(3).standard_normal((7, 5))
        u, sigma, vt = compute_svd(x)
        assert routines == ["gesdd", "gesvd"]
        assert_same_arrays((u, sigma, vt),
                           svd(x, full_matrices=False, lapack_driver="gesvd"))
        assert np.allclose((u * sigma) @ vt, x, atol=1e-12)
        assert np.allclose(ts1_prox_matrix(x, 1.0, 0.1),
                           (u * threshold_spectrum(
                               sigma, make_threshold_params(1.0, 0.1))) @ vt,
                           atol=1e-12)
        # singular_values shares the fallback
        del routines[:]
        assert_same_arrays([singular_values(x)],
                           [svd(x, compute_uv=False, lapack_driver="gesvd")])
        assert routines == ["gesdd", "gesvd"]

        def gesvd_fails(*args, **kwargs):
            return (*lapack.dgesvd(*args, **kwargs)[:3], 1)  # info > 0

        monkeypatch.setattr(matrix._flapack, "dgesvd", gesvd_fails)
        for call in (compute_svd, singular_values):
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                call(x)


def assert_same_arrays(got, want):
    """Equal bit for bit, in the same dtype, shape and memory layout."""
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert (p.dtype, p.shape, p.strides, p.flags.c_contiguous,
                p.flags.f_contiguous) == (q.dtype, q.shape, q.strides,
                                          q.flags.c_contiguous,
                                          q.flags.f_contiguous)
        assert p.tobytes() == q.tobytes()


class TestLapackWithoutScipyLinalg:
    """The dense SVD calls scipy's compiled LAPACK module directly; it must
    give what ``scipy.linalg.svd`` gives, without importing that package."""

    SHAPES = [(30, 30), (40, 12), (12, 40), (1, 9), (8, 6)]

    def test_import_leaves_the_python_packages_out(self):
        code = ("import sys, ts1mc, ts1mc.cli; print(sorted(m for m in "
                "('scipy.linalg', 'scipy.sparse', 'numpy.f2py') "
                "if m in sys.modules))")
        env = {**os.environ, "PYTHONPATH": str(Path(matrix.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    @pytest.mark.parametrize("shape", SHAPES)
    def test_dense_svd_is_scipy_linalg_svd(self, shape):
        x = np.random.default_rng(sum(shape)).standard_normal(shape)
        for arr in (x, np.asfortranarray(x)):
            assert_same_arrays(compute_svd(arr),
                               svd(arr, full_matrices=False))
            assert_same_arrays((singular_values(arr),),
                               (svd(arr, compute_uv=False),))

    def test_missing_module_names_the_scipy_floor(self):
        with pytest.raises(ImportError, match=r"scipy >= 1\.17"):
            matrix._compiled("linalg._no_such_module")


class TestPenalty:
    def test_zero_spectrum(self):
        assert ts1_penalty(np.zeros(4), 3.0) == 0.0

    def test_unit_spectrum(self):
        assert ts1_penalty(np.ones(3), 1.0) == pytest.approx(3.0, abs=1e-15)

    def test_direct_evaluation(self):
        assert ts1_penalty(np.array([3.0, 2.0]), 2.0) == pytest.approx(3.3, abs=1e-12)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            ts1_penalty(np.array([1.0, -0.1]), 1.0)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 8))
        q = random_orthogonal(rng, 6)
        p = random_orthogonal(rng, 8)
        assert ts1_of(q @ x @ p, 1.3) == pytest.approx(ts1_of(x, 1.3), abs=1e-8)


class TestProxMatrix:
    def test_zero_matrix(self):
        out = ts1_prox_matrix(np.zeros((4, 3)), 1.0, 0.3)
        assert np.all(out == 0.0)

    def test_diagonal_example(self):
        # t = 0.5 kills the 0.1 entry; the kept value solves
        # (3 - y)(1 + y)^2 = 0.5, i.e. y ~ 2.968248 (grid oracle agrees).
        out = ts1_prox_matrix(np.diag([3.0, 0.1]), 1.0, 0.25)
        assert out[1, 1] == pytest.approx(0.0, abs=1e-12)
        assert out[0, 0] == pytest.approx(2.968247902936453, abs=1e-9)
        assert abs(out[0, 1]) + abs(out[1, 0]) <= 1e-12

    def test_diagonal_example_against_diagonal_grid(self):
        y = np.diag([3.0, 0.1])
        a, lm = 1.0, 0.25
        out = ts1_prox_matrix(y, a, lm)
        obj_out = 0.5 * np.sum((out - y) ** 2) + lm * ts1_of(out, a)
        d0 = np.arange(0.0, 4.0, 1e-3)[:, None]
        # second diagonal entry scanned coarsely around the kill region
        d1 = np.arange(0.0, 0.3, 1e-3)[None, :]
        cand = 0.5 * ((d0 - 3.0) ** 2 + (d1 - 0.1) ** 2) \
            + lm * (rho_a(d0, a) + rho_a(d1, a))
        best = cand.min()
        assert obj_out <= best + 1e-6

    def test_random_probe_optimality(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal((5, 4))
        a, lm = 1.0, 0.4
        out = ts1_prox_matrix(y, a, lm)
        obj = lambda x: 0.5 * np.sum((x - y) ** 2) + lm * ts1_of(x, a)
        base = obj(out)
        for _ in range(1000):
            probe = out + rng.standard_normal(out.shape) * rng.uniform(1e-4, 0.3)
            assert base <= obj(probe) + 1e-10

    def test_rank_equals_spectrum_above_threshold(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((8, 8))
        a, lm = 1.0, 1.0
        t = make_threshold_params(a, lm).t
        out = ts1_prox_matrix(y, a, lm)
        expected_rank = int(np.sum(singular_values(y) > t))
        assert int(np.sum(singular_values(out) > 1e-12)) == expected_rank

    def test_diagonal_consistency_with_scalar_prox(self):
        diag = np.array([4.0, 2.5, 0.9, 0.2])
        y = np.zeros((4, 6))
        np.fill_diagonal(y, diag)
        a, lm = 1.5, 0.3
        out = ts1_prox_matrix(y, a, lm)
        p = make_threshold_params(a, lm)
        expected = ts1_prox_scalar(diag, p)
        assert np.abs(np.diag(out) - expected).max() <= 1e-8
        off = out.copy()
        np.fill_diagonal(off, 0.0)
        assert np.abs(off).max() <= 1e-8

    def test_rank_nonincreasing_in_lambda_mu(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal((10, 10))
        ranks = []
        for lm in [0.01, 0.05, 0.2, 0.8, 2.0, 8.0]:
            out = ts1_prox_matrix(y, 1.0, lm)
            ranks.append(int(np.sum(singular_values(out) > 1e-12)))
        assert all(r2 <= r1 for r1, r2 in zip(ranks, ranks[1:]))


class TestThresholdSpectrum:
    def test_boundary_conventions(self):
        a, lm = 1.0, 1.0
        th = make_threshold_params(a, lm)
        sig = np.array([2.0, th.t, 0.5])
        kill = threshold_spectrum(sig, th)
        keep = threshold_spectrum(sig, th._replace(keep_boundary=True))
        assert kill[1] == 0.0
        assert keep[1] > 0.0
        assert kill[2] == keep[2] == 0.0
        assert kill[0] == keep[0] > 0.0


class TestTraceAndKyFan:
    def test_partial_trace_identity(self):
        assert partial_trace(np.eye(3), 2) == 2.0

    def test_partial_trace_diag(self):
        assert partial_trace(np.diag([5.0, 4.0, 3.0]), 3) == 12.0

    def test_partial_trace_rectangular(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 6))
        assert partial_trace(x, 2) == pytest.approx(x[0, 0] + x[1, 1], abs=1e-15)

    def test_partial_trace_index_error(self):
        with pytest.raises(IndexError):
            partial_trace(np.eye(3), 4)

    def test_ky_fan_examples(self):
        sigma = np.array([3.0, 2.0, 1.0])
        assert ky_fan_norm(sigma, 2) == 5.0
        assert ky_fan_norm(sigma, 3) == 6.0  # nuclear norm

    def test_ky_fan_index_error(self):
        with pytest.raises(IndexError):
            ky_fan_norm(np.array([1.0]), 2)

    def test_trace_inequality_random(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            m = int(rng.integers(2, 12))
            n = int(rng.integers(2, 12))
            x = rng.standard_normal((m, n)) * rng.uniform(0.5, 3.0)
            sigma = singular_values(x)
            for k in range(1, min(m, n) + 1):
                assert partial_trace(x, k) <= ky_fan_norm(sigma, k) + 1e-9

    def test_equality_for_sorted_diagonal(self):
        d = np.array([4.0, 2.0, 1.0, 0.5])
        x = np.zeros((4, 5))
        np.fill_diagonal(x, d)
        for k in range(1, 5):
            assert partial_trace(x, k) == pytest.approx(
                ky_fan_norm(singular_values(x), k), abs=1e-10)
