import math

import numpy as np
import pytest

from ts1mc.bench import (CSV_COLUMNS, ExperimentRecord, ExperimentSpec, Suite,
                         aggregate_success, default_nuclear_lam, emit_csv,
                         load_config, read_csv, run_suite)


def tiny_spec(**kw):
    base = dict(suite=Suite.SINGLE, m=30, n=30, ranks=(2,), sr=0.5,
                trials=2, solvers=("ts1-s2",), seed=99, max_iters=2000)
    base.update(kw)
    return ExperimentSpec(**base)


def random_records(count, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        out.append(ExperimentRecord(
            suite="single", solver="ts1-s2", m=int(rng.integers(5, 200)),
            n=int(rng.integers(5, 200)), r=int(rng.integers(1, 20)),
            sr=float(rng.uniform(0.1, 1.0)), fr=float(rng.uniform(0.0, 1.0)),
            cov=float(rng.uniform(0.0, 0.9)),
            sigma_noise=float(rng.uniform(0.0, 0.3)), trial=i,
            rel_err=float(10.0 ** rng.uniform(-8, 0)),
            psnr=float(rng.uniform(5, 60)), mse=float(10.0 ** rng.uniform(-6, 0)),
            success=bool(rng.integers(0, 2)),
            iterations=int(rng.integers(1, 5000)),
            wall_time_seconds=float(rng.uniform(0, 30)),
            rank_estimated=None if rng.integers(0, 2) else int(rng.integers(1, 20))))
    return out


class TestRunSuite:
    def test_single_structure(self):
        records = run_suite(tiny_spec())
        assert len(records) == 2
        for i, rec in enumerate(records):
            assert rec.trial == i
            assert rec.suite == "single" and rec.solver == "ts1-s2"
            assert rec.m == rec.n == 30 and rec.r == 2
            assert rec.success and rec.rel_err < 5e-3
            assert rec.iterations >= 1 and rec.wall_time_seconds >= 0.0

    def test_fr_column_recomputation(self):
        records = run_suite(tiny_spec(trials=1, ranks=(3,)))
        for rec in records:
            p = int(round(rec.sr * rec.m * rec.n))
            assert rec.fr == rec.r * (rec.m + rec.n - rec.r) / p

    def test_full_observation_single_is_exact(self):
        records = run_suite(tiny_spec(sr=1.0, trials=1))
        assert records[0].rel_err < 1e-9

    @pytest.mark.parametrize("suite", [s for s in Suite if s is not Suite.INPAINT])
    def test_grid_suites_cross_parameters(self, suite):
        spec = tiny_spec(suite=suite, ranks=(2, 3), covs=(0.0, 0.5),
                         noises=(0.0, 0.01), trials=1, max_iters=50)
        records = run_suite(spec)
        assert [(rec.r, rec.cov, rec.sigma_noise) for rec in records] == [
            (r, cov, noise) for r in (2, 3) for cov in (0.0, 0.5)
            for noise in (0.0, 0.01)]

    def test_rank_estimate_suite_reports_estimate(self):
        spec = tiny_spec(suite=Suite.TABLE_RANK_ESTIMATE, m=60, n=60,
                         ranks=(4,), sr=0.5, trials=1, solvers=("ts1-s1",))
        rec = run_suite(spec)[0]
        assert rec.rank_estimated == 4
        assert rec.success

    def test_deterministic_records(self):
        spec = tiny_spec()
        r1 = run_suite(spec)
        r2 = run_suite(spec)
        for a, b in zip(r1, r2):
            assert a.rel_err == b.rel_err
            assert a.iterations == b.iterations

    def test_solver_failure_becomes_failed_row(self):
        # rank equal to min(m, n) is rejected by the solver; row must record
        # the failure instead of raising
        spec = tiny_spec(ranks=(30,), trials=1, suite=Suite.TABLE_KNOWN_RANK,
                         sr=0.9)
        records = run_suite(spec)
        assert len(records) == 1
        assert not records[0].success
        assert math.isinf(records[0].rel_err)

    def test_inpaint_suite(self):
        spec = tiny_spec(suite=Suite.INPAINT, m=48, n=48, ranks=(5,), sr=0.5,
                         noises=(0.01, 0.1), trials=1,
                         solvers=("ts1-s2", "nuclear"), max_iters=200)
        records = run_suite(spec)
        assert len(records) == 4
        by = {(rec.solver, rec.sigma_noise): rec for rec in records}
        assert by[("ts1-s2", 0.01)].psnr > by[("ts1-s2", 0.1)].psnr

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            tiny_spec(trials=0)
        with pytest.raises(ValueError):
            tiny_spec(solvers=("bogus",))
        with pytest.raises(ValueError):
            tiny_spec(ranks=())


class TestSuccessAggregation:
    def test_rates_are_means(self):
        from dataclasses import replace
        records = random_records(40, seed=3)
        # pool everything under one rank to make the mean obvious
        pinned = [replace(rec, r=7) for rec in records]
        points = aggregate_success(pinned)
        assert len(points) == 1
        expected = sum(rec.success for rec in pinned) / len(pinned)
        assert points[0].rate == pytest.approx(expected, abs=1e-15)
        assert points[0].trials == len(pinned)

    def test_ordered_by_rank(self):
        spec = tiny_spec(suite=Suite.SUCCESS_CURVE, ranks=(3, 2), trials=1)
        points = aggregate_success(run_suite(spec))
        assert [pt.r for pt in points] == [2, 3]


class TestCsv:
    def test_header(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_csv([], path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_round_trip(self, tmp_path):
        records = random_records(100, seed=11)
        path = tmp_path / "r.csv"
        emit_csv(records, path)
        back = read_csv(path)
        assert len(back) == len(records)
        for orig, rec in zip(records, back):
            # display columns round-trip through their declared formats;
            # everything else is exact
            assert rec.rel_err == orig.rel_err
            assert rec.sr == orig.sr and rec.fr == orig.fr
            assert rec.cov == orig.cov and rec.sigma_noise == orig.sigma_noise
            assert rec.psnr == float(f"{orig.psnr:.6g}")
            assert rec.mse == float(f"{orig.mse:.6g}")
            assert rec.wall_time_seconds == float(f"{orig.wall_time_seconds:.2f}")
            assert (rec.suite, rec.solver, rec.m, rec.n, rec.r, rec.trial,
                    rec.success, rec.iterations, rec.rank_estimated) == \
                   (orig.suite, orig.solver, orig.m, orig.n, orig.r, orig.trial,
                    orig.success, orig.iterations, orig.rank_estimated)

    def test_bytes_deterministic_modulo_wall_time(self, tmp_path):
        spec = tiny_spec()
        wall_idx = CSV_COLUMNS.index("wall_time_seconds")

        def strip(path):
            lines = path.read_text().splitlines()
            return [",".join(v for i, v in enumerate(line.split(","))
                             if i != wall_idx) for line in lines]

        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_suite(spec), p1)
        emit_csv(run_suite(spec), p2)
        assert strip(p1) == strip(p2)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("nope\n")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        emit_csv(random_records(2), path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 3)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"short.csv: line 3 has 14 fields, "
                                             f"expected {len(CSV_COLUMNS)}"):
            read_csv(path)

    def test_unwritable_path(self):
        with pytest.raises(OSError):
            emit_csv([], "/nonexistent-dir/records.csv")


class TestConfigFiles:
    def test_load_round_trip(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "[experiment]\n"
            "suite = table-known-rank\n"
            "m = 80\nn = 90\nsr = 0.35\n"
            "ranks = 4 6\n"
            "covs = 0.0\n"
            "noises = 0.0\n"
            "trials = 3\nfull_trials = 50\n"
            "solvers = ts1-s1 ts1-s2\n"
            "seed = 123\n"
            "[solver]\n"
            "mu = 0.95\ntol = 1e-5\nmax_iters = 800\n")
        spec = load_config(cfg)
        assert spec.suite is Suite.TABLE_KNOWN_RANK
        assert (spec.m, spec.n) == (80, 90)
        assert spec.ranks == (4, 6) and spec.trials == 3
        assert spec.solvers == ("ts1-s1", "ts1-s2")
        assert spec.mu == 0.95 and spec.tol == 1e-5 and spec.max_iters == 800
        full = load_config(cfg, full=True)
        assert full.trials == 50

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_config("/no/such/file.cfg")

    def test_keys_may_sit_in_either_section(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[experiment]\nmu = 0.5\na =\n"
                       "[solver]\nsuite = single\nlam = 0.2\n")
        assert load_config(cfg) == ExperimentSpec(suite=Suite.SINGLE, mu=0.5,
                                                  lam=0.2)

    @pytest.mark.parametrize("text, message", [
        ("[experiment]\nsuite = single\n[solver]\nmax_iter = 3\n",
         "unknown config key 'max_iter'"),
        ("[solver]\nmax_iters = 3\n", "missing required key 'suite'"),
        ("[experiment]\nsuite = single\nmu = 0.5\n[solver]\nmu = 0.9\n",
         "key 'mu' is set twice"),
        ("[experiment]\nsuite = single\nranks = 4 x\n", "ranks: invalid"),
        ("suite = single\n", "no section headers"),
    ], ids=["unknown-key", "missing-suite", "key-twice", "bad-value",
            "no-section"])
    def test_invalid_config_rejected(self, tmp_path, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_config(cfg)

    def test_shipped_configs_parse(self):
        from importlib import resources
        cfg_dir = resources.files("ts1mc") / "configs"
        names = sorted(p.name for p in cfg_dir.iterdir() if p.name.endswith(".cfg"))
        assert names  # the package ships at least the table/figure configs
        for name in names:
            spec = load_config(str(cfg_dir / name))
            assert spec.trials >= 1


class TestNuclearLamDefault:
    def test_noise_proportional(self):
        assert default_nuclear_lam(0.1) == pytest.approx(1e-3)
        assert default_nuclear_lam(0.0) == 0.15
