import math
import re
from dataclasses import replace

import numpy as np
import pytest

from ts1mc.bench import (CSV_COLUMNS, ExperimentRecord, ExperimentSpec, Suite,
                         aggregate_success, cells, default_nuclear_lam,
                         emit_csv, load_config, read_csv, run_suite,
                         solver_config)
from ts1mc.cli import cli_main
from ts1mc.matrixio import read_matrix_csv, write_pgm
from ts1mc.problems import (gen_gaussian_lowrank, image_to_lowrank_truth,
                            synthetic_test_image)


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

    def test_known_rank_rows_record_no_rank_estimate(self, tmp_path):
        spec = tiny_spec(suite=Suite.TABLE_KNOWN_RANK, trials=1, lam=0.1,
                         solvers=("ts1-it", "ts1-s1", "ts1-s2", "nuclear"),
                         max_iters=50)
        records = run_suite(spec)
        assert [rec.rank_estimated for rec in records] == [None] * 4
        out = tmp_path / "records.csv"
        emit_csv(records, out)
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 4
        assert all(row.endswith(",") for row in rows)

    def test_rank_estimate_rows_carry_the_estimate(self):
        spec = tiny_spec(suite=Suite.TABLE_RANK_ESTIMATE, m=60, n=60,
                         ranks=(4,), trials=1, lam=0.1, max_iters=50,
                         solvers=("ts1-s1", "ts1-s2", "ts1-it", "nuclear"))
        estimates = [rec.rank_estimated for rec in run_suite(spec)]
        assert estimates[0] == 4 and type(estimates[1]) is int
        assert estimates[2:] == [None, None]

    def test_deterministic_records(self):
        spec = tiny_spec()
        r1 = run_suite(spec)
        r2 = run_suite(spec)
        for a, b in zip(r1, r2):
            assert a.rel_err == b.rel_err
            assert a.iterations == b.iterations

    def test_ts1_s1_overflow_becomes_failed_row(self, monkeypatch):
        # data scaled by 1e154 overflow ts1-s1's float weight (a + 2 s_r)^2;
        # the cell must become an inf row, not end the suite
        def scaled(*args):
            truth = gen_gaussian_lowrank(*args)
            return replace(truth, matrix=1e154 * truth.matrix)
        monkeypatch.setattr("ts1mc.bench.gen_gaussian_lowrank", scaled)
        spec = tiny_spec(suite=Suite.TABLE_KNOWN_RANK, m=40, n=40, ranks=(3,),
                         trials=1, solvers=("ts1-s1", "ts1-s2"))
        with np.errstate(all="ignore"):
            records = run_suite(spec)
        assert [rec.solver for rec in records] == ["ts1-s1", "ts1-s2"]
        for rec in records:
            assert math.isinf(rec.rel_err) and not rec.success
            assert rec.iterations == 0

    def test_overflowing_error_becomes_failed_row(self, monkeypatch):
        # data scaled by 1e154: the nuclear solve ends after one iteration
        # with an inf squared error; its row gets PSNR -inf, and the suite
        # goes on to write every row
        def scaled(*args):
            truth = gen_gaussian_lowrank(*args)
            return replace(truth, matrix=1e154 * truth.matrix)
        monkeypatch.setattr("ts1mc.bench.gen_gaussian_lowrank", scaled)
        spec = tiny_spec(suite=Suite.TABLE_KNOWN_RANK, m=40, n=40, ranks=(3,),
                         trials=1, solvers=("ts1-s2", "nuclear"),
                         max_iters=50)
        with np.errstate(all="ignore"):
            records = run_suite(spec)
        assert [rec.solver for rec in records] == ["ts1-s2", "nuclear"]
        nuclear = records[1]
        assert nuclear.mse == math.inf and nuclear.psnr == -math.inf
        assert not nuclear.success and nuclear.iterations >= 1

    def test_rank_one_estimates_from_two(self):
        # K = max(floor(1.5 r), r + 1): rank 1 starts from K = 2, not 1
        spec = tiny_spec(suite=Suite.TABLE_RANK_ESTIMATE, m=40, n=40,
                         ranks=(1, 2, 3, 4), trials=1, solvers=("ts1-s1",))
        assert [solver_config(spec, "ts1-s1", r, 0.0).rank.k
                for r in spec.ranks] == [2, 3, 4, 6]
        (rec, *_) = run_suite(spec)
        assert rec.r == 1 and rec.rank_estimated == 1 and rec.success

    def test_unusable_cell_fails_before_any_solve(self, monkeypatch):
        # with r_min = 3, rank 2 gives K = 3, which no rank estimate can
        # use; the rank-3 cells come first but must not run
        def no_solve(*args):
            raise AssertionError("solve called before every cell was checked")
        monkeypatch.setattr("ts1mc.bench.solve", no_solve)
        spec = tiny_spec(suite=Suite.TABLE_RANK_ESTIMATE, m=40, n=40,
                         ranks=(3, 2), r_min=3, trials=1,
                         solvers=("ts1-s1", "ts1-s2"))
        with pytest.raises(ValueError, match="rank estimate needs 1 <= r_min < K"):
            run_suite(spec)

    # A rank (or K) that leaves ts1-s1/ts1-s2 no sigma_{r+1} fails the suite
    # with the solver's own message before any solve, also after a usable
    # rank; an inpaint suite's shape is its image's, not m x n.
    UNUSABLE_RANKS = [
        ("suite = table-known-rank\nm = 10\nn = 10\nranks = 10\n",
         "known rank 10 out of range"),
        ("suite = table-rank-estimate\nm = 20\nn = 20\nranks = 12 15\n",
         "rank estimate needs 1 <= r_min < K <= 19"),
        ("suite = inpaint\nimage = {image}\nranks = 16\n",
         "known rank 16 out of range")]
    UNUSABLE_IDS = ["known-rank", "rank-estimate", "inpaint-image"]

    @staticmethod
    def _unusable_config(tmp_path, monkeypatch, text):
        monkeypatch.setattr("ts1mc.bench.solve",
                            lambda *args: pytest.fail("solved a cell"))
        image = tmp_path / "square.pgm"
        write_pgm(image, synthetic_test_image(16, 16))
        cfg = tmp_path / "unusable.cfg"
        cfg.write_text("[experiment]\n" + text.format(image=image)
                       + "trials = 2\n")
        return cfg

    @pytest.mark.parametrize("text, message", UNUSABLE_RANKS, ids=UNUSABLE_IDS)
    def test_unusable_rank_fails_before_any_solve(self, tmp_path, monkeypatch,
                                                  text, message):
        spec = load_config(self._unusable_config(tmp_path, monkeypatch, text))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_suite(spec)

    @pytest.mark.parametrize("text, message", UNUSABLE_RANKS, ids=UNUSABLE_IDS)
    def test_bench_exits_on_an_unusable_rank(self, tmp_path, capsys,
                                             monkeypatch, text, message):
        cfg = self._unusable_config(tmp_path, monkeypatch, text)
        out = tmp_path / "records.csv"
        assert cli_main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"ts1mc bench: {message}\n"
        assert not out.exists()

    def test_lam_reaches_only_the_solvers_that_read_it(self):
        # ts1-s2 derives lam from each spectrum; nuclear reads the suite's
        spec = tiny_spec(suite=Suite.TABLE_KNOWN_RANK, trials=2, lam=0.1,
                         solvers=("ts1-s2", "nuclear"), max_iters=50)
        both = [replace(rec, wall_time_seconds=0.0) for rec in run_suite(spec)]
        alone = {name: [replace(rec, wall_time_seconds=0.0) for rec in
                        run_suite(replace(spec, solvers=(name,), lam=lam))]
                 for name, lam in (("ts1-s2", None), ("nuclear", 0.1))}
        assert both[0::2] == alone["ts1-s2"]
        assert both[1::2] == alone["nuclear"]
        # and the lam it reads is the suite's, not the default level
        default = run_suite(replace(spec, solvers=("nuclear",), lam=None))
        assert ([rec.rel_err for rec in both[1::2]]
                != [rec.rel_err for rec in default])

    def test_inpaint_suite(self):
        spec = tiny_spec(suite=Suite.INPAINT, m=48, n=48, ranks=(5,), sr=0.5,
                         noises=(0.01, 0.1), trials=1,
                         solvers=("ts1-s2", "nuclear"), max_iters=200)
        records = run_suite(spec)
        assert len(records) == 4
        by = {(rec.solver, rec.sigma_noise): rec for rec in records}
        assert by[("ts1-s2", 0.01)].psnr > by[("ts1-s2", 0.1)].psnr

    def test_inpaint_truth_built_once_per_rank(self, monkeypatch):
        # the truth depends only on the rank: one image, one truncation each
        calls = {"image": 0, "truncate": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper
        monkeypatch.setattr("ts1mc.bench.synthetic_test_image",
                            counted("image", synthetic_test_image))
        monkeypatch.setattr("ts1mc.bench.image_to_lowrank_truth",
                            counted("truncate", image_to_lowrank_truth))
        spec = tiny_spec(suite=Suite.INPAINT, m=24, n=24, ranks=(2, 3),
                         noises=(0.0, 0.1), trials=2, max_iters=3)
        assert len(run_suite(spec)) == 8
        assert calls == {"image": 1, "truncate": 2}

    def test_inpaint_rows_take_the_image_shape(self, tmp_path):
        image = tmp_path / "wide.pgm"
        write_pgm(image, synthetic_test_image(32, 40))
        spec = ExperimentSpec(suite=Suite.INPAINT, image=str(image), ranks=(3,),
                              trials=1, max_iters=5)
        (rec,) = run_suite(spec)
        assert (rec.m, rec.n) == (32, 40)
        assert rec.fr == 3 * (32 + 40 - 3) / round(0.4 * 32 * 40)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            tiny_spec(trials=0)
        with pytest.raises(ValueError):
            tiny_spec(solvers=("bogus",))
        with pytest.raises(ValueError):
            tiny_spec(ranks=())

    # A grid value no generator accepts, after good ones: a check made only
    # when its cell is built would solve the earlier cells first.  So is a
    # setting no solver of the suite (ts1-s2, the default) or its suite
    # reads.
    BAD_GRIDS = [("ranks", (5, 200), "rank r=200 out of range for dims (100, 100)"),
                 ("ranks", (5, 0), "rank r=0 out of range"),
                 ("covs", (0.0, 1.0), "cov must lie in [0, 1), got 1.0"),
                 ("noises", (0.0, -0.1), "noise level must be finite and "
                                         "nonnegative, got -0.1"),
                 ("noises", (0.0, math.inf), "noise level must be finite"),
                 ("sr", 0.0, "sampling ratio must lie in (0, 1], got 0.0"),
                 ("sr", 1.5, "sampling ratio must lie in (0, 1], got 1.5"),
                 ("seed", -3, "seed must be nonnegative, got -3"),
                 ("a", 2.0, "a not read by ts1-s2 in suite table-known-rank"),
                 ("lam", 0.1, "lam not read by ts1-s2 in suite table-known-rank"),
                 ("r_min", 2, "r_min not read by ts1-s2 in suite table-known-rank"),
                 ("image", "/no/such.pgm",
                  "image not read by ts1-s2 in suite table-known-rank")]
    BAD_IDS = ["rank-above-dims", "rank-zero", "cov-one", "noise-negative",
               "noise-inf", "sr-zero", "sr-above-one", "seed-negative",
               "a-unread", "lam-unread", "r-min-unread", "image-outside-inpaint"]

    @pytest.mark.parametrize("key, value, message", BAD_GRIDS, ids=BAD_IDS)
    def test_bad_grid_value_rejected_when_built(self, key, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentSpec(suite=Suite.TABLE_KNOWN_RANK, trials=2,
                           **{key: value})

    @pytest.mark.parametrize("key, value, message", BAD_GRIDS, ids=BAD_IDS)
    def test_bench_exits_on_a_bad_grid_before_solving(
            self, tmp_path, capsys, monkeypatch, key, value, message):
        monkeypatch.setattr("ts1mc.bench.solve",
                            lambda *args: pytest.fail("solved a cell"))
        text = " ".join(map(str, value)) if isinstance(value, tuple) else value
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[experiment]\nsuite = table-known-rank\n"
                       f"trials = 2\n{key} = {text}\n")
        out = tmp_path / "records.csv"
        assert cli_main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_inpaint_rank_is_bounded_by_the_image_it_reads(self, tmp_path):
        # m and n only size the synthetic pattern, so only r >= 1 is known
        # before the image is read
        image = tmp_path / "wide.pgm"
        write_pgm(image, synthetic_test_image(32, 200))
        spec = ExperimentSpec(suite=Suite.INPAINT, image=str(image), m=10,
                              n=10, ranks=(20,), trials=1, max_iters=2)
        assert run_suite(spec)[0].r == 20
        with pytest.raises(ValueError, match="rank r=0 out of range"):
            replace(spec, ranks=(0,))


class TestCells:
    def test_cells_are_the_suite_rows_in_order(self):
        spec = tiny_spec(suite=Suite.TABLE_KNOWN_RANK, ranks=(2, 3),
                         noises=(0.0, 0.01), trials=2,
                         solvers=("ts1-s2", "nuclear"), max_iters=5)
        records = run_suite(spec)
        streamed = [cell for cell, _, _ in cells(spec)]
        assert len(streamed) == 8
        assert [(rec.r, rec.cov, rec.sigma_noise, rec.trial)
                for rec in records[::len(spec.solvers)]] == streamed

    def test_first_cell_is_the_problem_gen_writes(self, tmp_path):
        prefix = str(tmp_path / "prob")
        assert cli_main(["gen", "--m", "30", "--n", "20", "--rank", "2",
                         "--sr", "0.5", "--seed", "17", "--out", prefix]) == 0
        cell, truth, masked = next(cells(ExperimentSpec(
            suite=Suite.SINGLE, m=30, n=20, ranks=(2,), sr=0.5, seed=17)))
        assert cell == (2, 0.0, 0.0, 0)
        assert np.array_equal(read_matrix_csv(prefix + ".truth.csv"),
                              truth.matrix)
        observed = read_matrix_csv(prefix + ".observed.csv").reshape(-1)
        assert np.array_equal(np.flatnonzero(~np.isnan(observed)),
                              masked.op.flat)
        assert np.array_equal(observed[masked.op.flat], masked.values)


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
        # lam needs a solver that reads it: nuclear
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[experiment]\nmu = 0.5\na =\nsolvers = nuclear\n"
                       "[solver]\nsuite = single\nlam = 0.2\n")
        assert load_config(cfg) == ExperimentSpec(
            suite=Suite.SINGLE, mu=0.5, lam=0.2, solvers=("nuclear",))

    def test_full_needs_full_trials(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("ts1mc.bench.cells",
                            lambda *args: pytest.fail("built a problem"))
        cfg = tmp_path / "short.cfg"
        cfg.write_text("[experiment]\nsuite = single\ntrials = 2\n")
        assert load_config(cfg).trials == 2
        message = f"{cfg}: no full_trials key for a full-scale run"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_config(cfg, full=True)
        out = tmp_path / "records.csv"
        assert cli_main(["bench", "--config", str(cfg), "--out", str(out),
                         "--full"]) == 1
        assert capsys.readouterr().err == f"ts1mc bench: {message}\n"
        assert not out.exists()

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
