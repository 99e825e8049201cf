import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ts1mc import sampling
from ts1mc.matrix import singular_values, ts1_penalty, ts1_prox_matrix
from ts1mc.sampling import ObjectiveContext, SamplingOperator, gradient_step


@pytest.fixture
def op22():
    return SamplingOperator((2, 2), np.array([0, 3]))


def rows_cols(op):
    """The 2-D index of the observed entries, an independent reference."""
    return np.unravel_index(op.flat, op.shape)


class TestSamplingOperator:
    def test_apply_ones(self, op22):
        assert np.array_equal(op22.apply(np.ones((2, 2))), [1.0, 1.0])

    def test_apply_zero(self, op22):
        assert np.array_equal(op22.apply(np.zeros((2, 2))), [0.0, 0.0])

    def test_projection_idempotence(self):
        rng = np.random.default_rng(0)
        op = SamplingOperator((5, 7), rng.choice(35, size=12, replace=False))
        x = rng.standard_normal((5, 7))
        once = op.apply(x)
        assert np.array_equal(op.apply(op.adjoint(once)), once)

    def test_adjoint_basis_vector(self, op22):
        e1 = np.array([1.0, 0.0])
        out = op22.adjoint(e1)
        assert out[0, 0] == 1.0 and np.sum(np.abs(out)) == 1.0

    def test_adjoint_apply_masks(self):
        rng = np.random.default_rng(1)
        op = SamplingOperator((4, 4), rng.choice(16, size=6, replace=False))
        x = rng.standard_normal((4, 4))
        masked = op.adjoint(op.apply(x))
        mask = np.zeros(op.shape, dtype=bool)
        mask[rows_cols(op)] = True
        assert np.allclose(masked[mask], x[mask])
        assert np.all(masked[~mask] == 0.0)

    def test_adjointness_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            op = SamplingOperator((6, 9), rng.choice(54, size=20, replace=False))
            x = rng.standard_normal((6, 9))
            v = rng.standard_normal(op.p)
            lhs = float(np.dot(op.apply(x), v))
            rhs = float(np.sum(x * op.adjoint(v)))
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))

    def test_validation(self):
        for flat in (np.array([1, 1]),               # duplicate
                     np.array([4]), np.array([-1]),  # outside [0, m n)
                     np.array([], dtype=int),        # empty
                     np.array([[0, 1], [2, 3]])):    # not 1-D
            with pytest.raises(ValueError):
                SamplingOperator((2, 2), flat)

    @pytest.mark.parametrize("flat, message", [
        ([2, 0, 2], "duplicate observation indices"),
        ([3, 3, 4], r"out of bounds \[0, 4\)"),  # bounds are checked first
        ([-1, -1], r"out of bounds \[0, 4\)")])
    def test_validation_messages(self, flat, message):
        with pytest.raises(ValueError, match=message):
            SamplingOperator((2, 2), np.array(flat))

    def test_index_keeps_the_callers_order(self):
        # the checks run on a sorted copy; the operator reads in given order
        op = SamplingOperator((2, 2), np.array([3, 0, 2]))
        assert op.flat.tolist() == [3, 0, 2]

    def test_building_an_operator_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on its first call in a process
        code = ("import sys, numpy as np; from ts1mc.sampling import "
                "SamplingOperator; SamplingOperator((3, 3), np.array([4, 0, 8])); "
                "print('numpy.ma' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(sampling.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    @pytest.mark.parametrize("flat", [[0.7, 3.2], [0.0, 3.0], [True, False]])
    def test_non_integer_index_rejected(self, flat):
        # a cast would read entries [0, 3] (or [1, 0]) without a word
        with pytest.raises(ValueError, match="must hold integers"):
            SamplingOperator((2, 2), np.array(flat))

    def test_index_is_a_read_only_copy(self):
        flat = np.array([0, 3])
        op = SamplingOperator((2, 2), flat)
        flat[1] = 0  # the caller's array is theirs to change
        assert op.flat.tolist() == [0, 3]
        with pytest.raises(ValueError, match="read-only"):
            op.flat[1] = 0

    def test_dimension_mismatch(self, op22):
        with pytest.raises(ValueError):
            op22.apply(np.ones((3, 2)))
        with pytest.raises(ValueError):
            op22.adjoint(np.ones(3))


class TestBMuStep:
    def test_full_step_replaces_observed(self, op22):
        # mu at the closure of the admissible interval: exact data fill
        ctx = ObjectiveContext(op=op22, b=np.array([4.0, -1.0]), lam=0.1,
                               mu=1.0, a=1.0)
        z = np.full((2, 2), 9.0)
        out = ctx.b_mu_step(z)
        assert out[0, 0] == 4.0 and out[1, 1] == -1.0
        assert out[0, 1] == 9.0 and out[1, 0] == 9.0

    def test_consistent_point_is_fixed(self, op22):
        z = np.array([[4.0, 2.0], [3.0, -1.0]])
        ctx = ObjectiveContext(op=op22, b=op22.apply(z), lam=0.1, mu=0.7, a=1.0)
        assert np.allclose(ctx.b_mu_step(z), z)

    def test_half_step_arithmetic(self):
        op = SamplingOperator((2, 2), np.array([0]))
        ctx = ObjectiveContext(op=op, b=np.array([4.0]), lam=0.1, mu=0.5, a=1.0)
        out = ctx.b_mu_step(np.zeros((2, 2)))
        assert out[0, 0] == 2.0
        assert np.sum(np.abs(out)) == 2.0

    def test_unobserved_pass_through(self):
        rng = np.random.default_rng(5)
        op = SamplingOperator((5, 5), rng.choice(25, size=10, replace=False))
        ctx = ObjectiveContext(op=op, b=rng.standard_normal(10), lam=0.2,
                               mu=0.9, a=1.0)
        z = rng.standard_normal((5, 5))
        out = ctx.b_mu_step(z)
        unobserved = np.ones(op.shape, dtype=bool)
        unobserved[rows_cols(op)] = False
        assert np.array_equal(out[unobserved], z[unobserved])

    @pytest.mark.parametrize("lam, a", [(np.inf, 1.0), (0.1, np.inf)])
    def test_penalty_must_be_finite(self, op22, lam, a):
        with pytest.raises(ValueError, match="=inf"):
            ObjectiveContext(op=op22, b=np.zeros(2), lam=lam, mu=0.9, a=a)

    def test_mu_validation(self, op22):
        with pytest.raises(ValueError):
            ObjectiveContext(op=op22, b=np.zeros(2), lam=0.1, mu=0.0, a=1.0)
        with pytest.raises(ValueError):
            ObjectiveContext(op=op22, b=np.zeros(2), lam=0.1, mu=1.5, a=1.0)


# Non-C-ordered arrays holding the same values as the C-ordered input.
LAYOUTS = {
    "fortran": np.asfortranarray,
    "sliced": lambda z: np.repeat(np.repeat(z, 2, axis=0), 3, axis=1)[::2, ::3],
    "reversed": lambda z: np.ascontiguousarray(z[::-1])[::-1],
}


class TestFlatIndexLayouts:
    """Gathers and scatters go through a 1-D view of a C-ordered array; on
    any other layout that view would be a copy and a scatter into it lost."""

    @pytest.fixture
    def problem(self):
        rng = np.random.default_rng(7)
        op = SamplingOperator((6, 9), rng.choice(54, size=25, replace=False))
        return op, rng.standard_normal((6, 9)), rng.standard_normal(op.p)

    def test_flat_index_is_the_only_index(self, problem):
        op = problem[0]
        assert [f.name for f in dataclasses.fields(op)] == ["shape", "flat"]
        assert op.flat.dtype == np.intp and op.flat.ndim == 1
        assert np.array_equal(np.ravel_multi_index(rows_cols(op), op.shape),
                              op.flat)
        with pytest.raises(TypeError):
            SamplingOperator(shape=op.shape, rows=rows_cols(op)[0],
                             cols=rows_cols(op)[1])

    @pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
    def test_non_c_layouts_match_the_2d_index(self, problem, layout):
        op, z, b = problem
        mu = 0.7
        ij = rows_cols(op)
        zl, bl = layout(z), np.repeat(b, 2)[::2]
        assert not zl.flags.c_contiguous and not bl.flags.c_contiguous
        expected = z.copy()
        expected[ij] += mu * (b - expected[ij])
        scattered = np.zeros(op.shape)
        scattered[ij] = b

        assert np.array_equal(op.apply(zl), z[ij])
        assert np.array_equal(op.adjoint(bl), scattered)
        assert np.array_equal(gradient_step(zl, op, bl, mu), expected)
        ctx = ObjectiveContext(op=op, b=bl, lam=0.1, mu=mu, a=1.0)
        assert np.array_equal(ctx.b_mu_step(zl), expected)
        assert np.array_equal(zl, z)  # the caller's array is untouched


class TestObjectives:
    def test_zero_everything(self, op22):
        ctx = ObjectiveContext(op=op22, b=np.zeros(2), lam=0.3, mu=0.9, a=1.0)
        assert ctx.c_lambda(np.zeros((2, 2))) == 0.0

    def test_consistent_rank_one(self):
        x = np.zeros((3, 3))
        x[0, 0] = 1.0  # sigma = (1, 0, 0)
        op = SamplingOperator((3, 3), np.array([0, 4]))
        ctx = ObjectiveContext(op=op, b=op.apply(x), lam=2.0, mu=0.9, a=1.0)
        assert ctx.c_lambda(x) == pytest.approx(2.0, abs=1e-12)

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(8)
        op = SamplingOperator((5, 6), rng.choice(30, size=14, replace=False))
        ctx = ObjectiveContext(op=op, b=rng.standard_normal(14), lam=0.7,
                               mu=0.8, a=1.4)
        x = rng.standard_normal((5, 6))
        resid = x[rows_cols(op)] - ctx.b
        expected = 0.5 * float(resid @ resid) \
            + 0.7 * ts1_penalty(singular_values(x), 1.4)
        assert ctx.c_lambda(x) == pytest.approx(expected, rel=1e-12)

    def test_surrogate_at_same_point(self):
        rng = np.random.default_rng(9)
        op = SamplingOperator((4, 4), rng.choice(16, size=8, replace=False))
        ctx = ObjectiveContext(op=op, b=rng.standard_normal(8), lam=0.5,
                               mu=0.6, a=1.0)
        x = rng.standard_normal((4, 4))
        assert ctx.c_lambda_mu(x, x) == pytest.approx(0.6 * ctx.c_lambda(x),
                                                      rel=1e-12)

    def test_surrogate_penalty_off(self):
        rng = np.random.default_rng(10)
        op = SamplingOperator((4, 4), rng.choice(16, size=8, replace=False))
        ctx = ObjectiveContext(op=op, b=rng.standard_normal(8), lam=0.0,
                               mu=0.3, a=1.0)
        x, z = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
        dx = op.apply(x) - op.apply(z)
        rx = op.apply(x) - ctx.b
        expected = 0.3 * (0.5 * rx @ rx - 0.5 * dx @ dx) \
            + 0.5 * np.sum((x - z) ** 2)
        assert ctx.c_lambda_mu(x, z) == pytest.approx(float(expected), rel=1e-12)

    def test_surrogate_dominates(self):
        rng = np.random.default_rng(11)
        op = SamplingOperator((6, 6), rng.choice(36, size=15, replace=False))
        for mu in (0.3, 0.8, 0.99):
            ctx = ObjectiveContext(op=op, b=rng.standard_normal(15), lam=0.4,
                                   mu=mu, a=1.0)
            for _ in range(25):
                x = rng.standard_normal((6, 6))
                z = rng.standard_normal((6, 6))
                assert ctx.c_lambda_mu(x, z) >= mu * ctx.c_lambda(x) - 1e-10

    def test_prox_of_gradient_step_minimizes_surrogate(self):
        rng = np.random.default_rng(12)
        op = SamplingOperator((5, 5), rng.choice(25, size=12, replace=False))
        ctx = ObjectiveContext(op=op, b=rng.standard_normal(12), lam=0.6,
                               mu=0.9, a=1.0)
        z = rng.standard_normal((5, 5))
        xs = ts1_prox_matrix(ctx.b_mu_step(z), ctx.a, ctx.lam * ctx.mu)
        best = ctx.c_lambda_mu(xs, z)
        for _ in range(100):
            cand = xs + rng.standard_normal((5, 5)) * rng.uniform(0.01, 1.0)
            assert best <= ctx.c_lambda_mu(cand, z) + 1e-9
