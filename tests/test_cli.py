import argparse
from typing import get_args, get_type_hints

import numpy as np
import pytest

from ts1mc.bench import (CSV_COLUMNS, ExperimentSpec, Suite, default_nuclear_lam,
                         read_csv)
from ts1mc.cli import _load_problem, _spec, build_parser, cli_main
from ts1mc.matrixio import read_matrix_csv, read_pgm, write_matrix_csv, write_pgm
from ts1mc.problems import synthetic_test_image


class TestGenSolve:
    def test_gen_then_solve_round_trip(self, tmp_path, capsys):
        prefix = str(tmp_path / "prob")
        assert cli_main(["gen", "--m", "40", "--n", "40", "--rank", "3",
                         "--sr", "0.5", "--seed", "7", "--out", prefix]) == 0
        truth = read_matrix_csv(prefix + ".truth.csv")
        observed = read_matrix_csv(prefix + ".observed.csv")
        assert truth.shape == observed.shape == (40, 40)
        assert int(np.sum(~np.isnan(observed))) == 800
        out = str(tmp_path / "rec.csv")
        assert cli_main(["solve", "--in", prefix, "--solver", "ts1-s2",
                         "--rank", "3", "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "rel.err=" in printed and "iterations=" in printed
        recovered = read_matrix_csv(out)
        err = np.linalg.norm(recovered - truth) / np.linalg.norm(truth)
        assert err < 5e-3

    def test_gen_prints_fr_truncated(self, tmp_path, capsys):
        # FR = 3 * 77 / 800 = 0.28875: truncated, as the paper's tables show
        assert cli_main(["gen", "--m", "40", "--n", "40", "--rank", "3",
                         "--sr", "0.5", "--out", str(tmp_path / "prob")]) == 0
        assert "FR=0.2887 " in capsys.readouterr().out

    def test_solve_generates_when_no_input(self, capsys):
        assert cli_main(["solve", "--m", "30", "--n", "30", "--rank", "2",
                         "--sr", "0.5", "--seed", "3"]) == 0
        assert "converged=True" in capsys.readouterr().out

    def test_solve_requires_rank_when_generating(self, capsys):
        assert cli_main(["solve", "--m", "30", "--n", "30"]) == 1

    def test_solve_with_rank_estimation(self, capsys):
        assert cli_main(["solve", "--m", "60", "--n", "60", "--rank", "4",
                         "--sr", "0.5", "--rank-estimate", "6",
                         "--solver", "ts1-s1", "--seed", "5"]) == 0
        assert "rank_est=4" in capsys.readouterr().out

    # rank_est= is printed only by a solve that estimated the rank: a
    # known-rank ts1-s1/ts1-s2 solve reports no estimate, and nuclear, which
    # has no rank to estimate, refuses --rank-estimate before it solves
    @pytest.mark.parametrize("flags", [
        ["--solver", "ts1-s2"], ["--solver", "ts1-s1"],
        ["--solver", "nuclear", "--rank-estimate", "4"]])
    def test_known_rank_solve_prints_no_rank_estimate(self, capsys, flags):
        code = cli_main(["solve", "--m", "30", "--n", "30", "--rank", "2",
                         "--sr", "0.5", "--max-iters", "50", *flags])
        out = capsys.readouterr()
        assert "rank_est" not in out.out
        if "nuclear" in flags:
            assert (code, out.out, out.err) == (
                1, "", "ts1mc solve: rank_estimate not read by nuclear in "
                       "suite single\n")
        else:
            assert (code, out.err) == (0, "")

    # solve and inpaint refuse a setting their one solver does not read,
    # naming it, before any problem is built
    @pytest.mark.parametrize("command, flags, message", [
        ("solve", ["--solver", "ts1-s2", "--a", "5", "--lam", "3"],
         "a, lam not read by ts1-s2 in suite single"),
        ("solve", ["--solver", "ts1-s1", "--lam", "7"],
         "lam not read by ts1-s1 in suite single"),
        ("solve", ["--solver", "nuclear", "--rank-estimate", "5"],
         "rank_estimate not read by nuclear in suite single"),
        ("solve", ["--r-min", "2"], "r_min not read by ts1-s2 in suite single"),
        ("solve", ["--solver", "ts1-it", "--lam", "0.1", "--rank-estimate", "5",
                   "--r-min", "2"],
         "rank_estimate, r_min not read by ts1-it in suite single"),
        ("inpaint", ["--solver", "nuclear", "--a", "2"],
         "a not read by nuclear in suite inpaint"),
    ], ids=["ts1-s2-a-lam", "ts1-s1-lam", "nuclear-rank-estimate",
            "r-min-without-estimate", "ts1-it-rank-estimate", "inpaint-nuclear-a"])
    def test_unread_setting_is_refused(self, capsys, monkeypatch, command,
                                       flags, message):
        monkeypatch.setattr("ts1mc.cli.cells",
                            lambda *args: pytest.fail("built a problem"))
        problem = {"solve": ["--m", "30", "--n", "30", "--sr", "0.5"],
                   "inpaint": ["--sr", "0.5"]}[command]
        assert cli_main([command, *problem, "--rank", "3", "--max-iters", "40",
                         *flags]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"ts1mc {command}: {message}\n")

    @pytest.mark.parametrize("command", [
        ["gen", "--out", "p"], ["solve", "--m", "30", "--n", "30"],
        ["inpaint", "--sr", "0.5"]], ids=["gen", "solve", "inpaint"])
    def test_missing_rank_fails_one_way(self, capsys, command, monkeypatch):
        monkeypatch.setattr("ts1mc.cli.cells",
                            lambda *args: pytest.fail("built a problem"))
        assert cli_main(command) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"ts1mc {command[0]}: --rank is required\n")


class TestReplay:
    ARGS = ["--m", "40", "--n", "40", "--rank", "3", "--sr", "0.5",
            "--seed", "11"]

    @staticmethod
    def _metrics(printed):
        fields = dict(f.split("=", 1) for f in printed.split() if "=" in f)
        return fields["rel.err"], fields["iterations"]

    @pytest.mark.parametrize("solver_section, flags", [
        ("", []), ("rank_estimate = 5\n", ["--rank-estimate", "5"])])
    def test_solve_replays_single_suite_bench_row(self, tmp_path, capsys,
                                                  solver_section, flags):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(
            "[experiment]\nsuite = single\nm = 40\nn = 40\nranks = 3\n"
            "sr = 0.5\ntrials = 1\nsolvers = ts1-s1\nseed = 11\n"
            "[solver]\n" + solver_section)
        out = tmp_path / "one.csv"
        assert cli_main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        row = read_csv(out)[0]
        capsys.readouterr()
        assert cli_main(["solve", "--solver", "ts1-s1"] + self.ARGS + flags) == 0
        assert self._metrics(capsys.readouterr().out) == (
            f"{row.rel_err:.6e}", str(row.iterations))

    # ts1-s1 rank estimation picks a from the freedom ratio, so the problem
    # read back from files must carry the same descriptors; without --rank
    # they come from the rank of the truth file.
    @pytest.mark.parametrize("flags, rank_flags", [
        ([], ["--rank", "3"]),
        (["--solver", "ts1-s1", "--rank-estimate", "5"], ["--rank", "3"]),
        (["--solver", "ts1-s1", "--rank-estimate", "5"], [])],
        ids=["known-rank", "rank-estimate", "rank-estimate-no-rank"])
    def test_gen_then_solve_matches_solve_on_the_fly(self, tmp_path, capsys,
                                                     flags, rank_flags):
        prefix = str(tmp_path / "prob")
        assert cli_main(["gen", "--out", prefix] + self.ARGS) == 0
        capsys.readouterr()
        assert cli_main(["solve", "--in", prefix] + rank_flags + flags) == 0
        from_files = self._metrics(capsys.readouterr().out)
        assert cli_main(["solve"] + self.ARGS + flags) == 0
        assert self._metrics(capsys.readouterr().out) == from_files


class TestSolveIn:
    """``solve --in`` takes the whole problem from its files."""

    @pytest.fixture
    def prefix(self, tmp_path, capsys):
        prefix = str(tmp_path / "prob")
        assert cli_main(["gen", "--m", "30", "--n", "30", "--rank", "2",
                         "--sr", "0.5", "--noise", "0.1", "--seed", "1",
                         "--out", prefix]) == 0
        capsys.readouterr()
        return prefix

    @pytest.mark.parametrize("flag, value", [
        ("--m", "30"), ("--n", "30"), ("--sr", "0.5"), ("--cov", "0.5"),
        ("--seed", "1")])
    def test_problem_flag_is_refused(self, prefix, capsys, monkeypatch,
                                     flag, value):
        monkeypatch.setattr("ts1mc.cli.read_matrix_csv",
                            lambda *args: pytest.fail("read the files"))
        assert cli_main(["solve", "--in", prefix, flag, value]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == (
            "", f"ts1mc solve: {flag} cannot be set with --in\n")

    def test_every_problem_flag_given_is_named(self, prefix, capsys):
        assert cli_main(["solve", "--in", prefix, "--seed", "7", "--sr", "0.9",
                         "--noise", "0.1", "--n", "999", "--cov", "0.5",
                         "--m", "30"]) == 1
        assert capsys.readouterr().err == (
            "ts1mc solve: --m, --n, --sr, --cov, --seed cannot be set with --in\n")

    # --noise serves only nuclear's default lam: any other solver, or a
    # nuclear solve given --lam, would ignore it
    @pytest.mark.parametrize("flags", [
        [], ["--solver", "ts1-s1"], ["--solver", "nuclear", "--lam", "0.1"]],
        ids=["default-solver", "ts1-s1", "nuclear-with-lam"])
    def test_noise_refused_unless_it_sets_the_nuclear_default_lam(
            self, prefix, capsys, monkeypatch, flags):
        monkeypatch.setattr("ts1mc.cli.read_matrix_csv",
                            lambda *args: pytest.fail("read the files"))
        assert cli_main(["solve", "--in", prefix, "--noise", "0.1", *flags]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("ts1mc solve: --noise ")
        assert "--solver nuclear and no --lam" in out.err

    def test_noise_sets_the_nuclear_default_lam(self, prefix, capsys):
        printed = []
        for flags in (["--noise", "0.1"], ["--lam", repr(default_nuclear_lam(0.1))],
                      []):
            assert cli_main(["solve", "--in", prefix, "--solver", "nuclear",
                             "--max-iters", "30", *flags]) == 0
            printed.append(TestReplay._metrics(capsys.readouterr().out))
        assert printed[0] == printed[1] != printed[2]


class TestInvalidInput:
    def test_nonfinite_observed_value(self, tmp_path, capsys):
        prefix = str(tmp_path / "prob")
        assert cli_main(["gen", "--m", "20", "--n", "20", "--rank", "2",
                         "--out", prefix]) == 0
        observed = read_matrix_csv(prefix + ".observed.csv")
        observed[np.unravel_index(np.flatnonzero(~np.isnan(observed))[0],
                                  observed.shape)] = np.inf
        write_matrix_csv(prefix + ".observed.csv", observed)
        assert cli_main(["solve", "--in", prefix, "--rank", "2"]) == 1
        assert "finite" in capsys.readouterr().err

    def test_ts1_s1_overflow_exits_1(self, tmp_path, capsys):
        # at this scale ts1-s1's (a + 2 sigma_r)^2 overflows a float; the
        # solve must fail like ts1-s2's, with a message and no traceback
        prefix = str(tmp_path / "prob")
        assert cli_main(["gen", "--m", "40", "--n", "40", "--rank", "3",
                         "--seed", "1", "--out", prefix]) == 0
        for name in ("truth", "observed"):
            path = f"{prefix}.{name}.csv"
            write_matrix_csv(path, 1e154 * read_matrix_csv(path))
        capsys.readouterr()
        with np.errstate(all="ignore"):
            assert cli_main(["solve", "--in", prefix, "--solver", "ts1-s1",
                             "--rank", "3"]) == 1
        assert "ts1mc solve: array must not contain infs or NaNs" in (
            capsys.readouterr().err)

    def test_shape_mismatch_rejected_before_solving(self, tmp_path, capsys,
                                                    monkeypatch):
        prefix = str(tmp_path / "prob")
        assert cli_main(["gen", "--m", "30", "--n", "30", "--rank", "2",
                         "--out", prefix]) == 0
        observed = read_matrix_csv(prefix + ".observed.csv")
        write_matrix_csv(prefix + ".observed.csv", observed[:, :20])
        monkeypatch.setattr("ts1mc.cli.solve",
                            lambda *args: pytest.fail("solved mismatched files"))
        assert cli_main(["solve", "--in", prefix]) == 1
        err = capsys.readouterr().err
        assert prefix + ".truth.csv" in err and prefix + ".observed.csv" in err

    def test_nonfinite_truth_rejected_before_solving(self, tmp_path, capsys,
                                                     monkeypatch):
        prefix = str(tmp_path / "prob")
        assert cli_main(["gen", "--m", "20", "--n", "20", "--rank", "2",
                         "--out", prefix]) == 0
        truth = read_matrix_csv(prefix + ".truth.csv")
        truth[0, 0] = np.nan
        write_matrix_csv(prefix + ".truth.csv", truth)
        monkeypatch.setattr("ts1mc.cli.solve",
                            lambda *args: pytest.fail("solved a NaN truth"))
        assert cli_main(["solve", "--in", prefix, "--rank", "2"]) == 1
        assert prefix + ".truth.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["", "\n"], ids=["empty", "blank-line"])
    def test_truth_file_without_values(self, tmp_path, capfd, monkeypatch,
                                       content):
        prefix = str(tmp_path / "prob")
        assert cli_main(["gen", "--m", "10", "--n", "10", "--rank", "2",
                         "--out", prefix]) == 0
        (tmp_path / "prob.truth.csv").write_text(content)
        monkeypatch.setattr("ts1mc.cli.solve",
                            lambda *args: pytest.fail("solved an empty truth"))
        capfd.readouterr()
        assert cli_main(["solve", "--in", prefix]) == 1
        out = capfd.readouterr()
        assert "DGESDD" not in out.err
        assert (out.out, out.err) == (
            "", f"ts1mc solve: {prefix}.truth.csv: holds no values\n")

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_negative_seed(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr("ts1mc.bench.cells",
                            lambda *args: pytest.fail("built a problem"))
        cfg = tmp_path / "t.cfg"
        cfg.write_text("[experiment]\nsuite = single\nm = 20\nn = 20\n")
        args = {"solve": ["--m", "20", "--n", "20", "--rank", "2"],
                "bench": ["--config", str(cfg), "--out", str(tmp_path / "o.csv")]}
        assert cli_main([command, *args[command], "--seed", "-1"]) == 1
        assert capsys.readouterr().err == (
            f"ts1mc {command}: seed must be nonnegative, got -1\n")

    def test_negative_lam(self, capsys):
        assert cli_main(["solve", "--m", "20", "--n", "20", "--rank", "2",
                         "--solver", "nuclear", "--lam", "-1"]) == 1
        assert "lam must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--solver", "ts1-s1", "--a", "inf"],
        ["--solver", "ts1-it", "--lam", "0.1", "--a", "inf"],
        ["--solver", "nuclear", "--lam", "inf"],
    ], ids=["ts1-s1-a", "ts1-it-a", "nuclear-lam"])
    def test_non_finite_penalty_exits_1(self, capsys, flags):
        assert cli_main(["solve", "--m", "20", "--n", "20", "--rank", "2",
                         "--max-iters", "50", *flags]) == 1
        out = capsys.readouterr()
        assert "=inf" in out.err and out.out == ""

    @pytest.mark.parametrize("flag, message", [
        ("--tol", "tol must be positive"),
        ("--noise", "noise level must be finite")], ids=["tol", "noise"])
    def test_nan_setting(self, capsys, flag, message):
        assert cli_main(["solve", "--m", "20", "--n", "20", "--rank", "2",
                         "--max-iters", "50", flag, "nan"]) == 1
        assert message in capsys.readouterr().err


class TestFlagsAndSpec:
    def test_unset_flags_keep_the_spec_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert _spec(args, Suite.SINGLE) == ExperimentSpec(Suite.SINGLE, trials=1)

    def test_set_flags_fill_their_fields(self):
        # no one solver reads every flag: ts1-s1 reads the rank estimate and
        # a, ts1-it reads a and lam
        common = ["--m", "30", "--n", "20", "--sr", "0.5", "--cov", "0.2",
                  "--noise", "0.1", "--seed", "4", "--rank", "3", "--mu", "0.9",
                  "--a", "2", "--tol", "1e-5", "--max-iters", "7"]
        fields = dict(m=30, n=20, ranks=(3,), sr=0.5, covs=(0.2,),
                      noises=(0.1,), trials=1, seed=4, mu=0.9, tol=1e-5,
                      max_iters=7, a=2.0)
        for flags, own in [
                (["--solver", "ts1-s1", "--rank-estimate", "6", "--r-min", "2"],
                 dict(solvers=("ts1-s1",), rank_estimate=6, r_min=2)),
                (["--solver", "ts1-it", "--lam", "0.1"],
                 dict(solvers=("ts1-it",), lam=0.1))]:
            args = build_parser().parse_args(["solve", *common, *flags])
            assert _spec(args, Suite.SINGLE) == ExperimentSpec(
                Suite.SINGLE, **fields, **own)

    # Every option named after a spec field, or after the one value of a
    # grid field, is typed by that field.
    GRID = {"rank": "ranks", "cov": "covs", "noise": "noises",
            "solver": "solvers"}
    REQUIRED = {"gen": ["--rank", "2", "--out", "p"],
                "bench": ["--config", "c.cfg", "--out", "o.csv"]}
    SAMPLES = {int: "3", float: "0.25", str: "ts1-s1"}

    @staticmethod
    def _spec_options(command):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        hints = get_type_hints(ExperimentSpec)
        for action in sub.choices[command]._actions:
            field = TestFlagsAndSpec.GRID.get(action.dest, action.dest)
            if field in hints:
                kind = hints[field]
                yield action, (get_args(kind) or (kind,))[0]

    @pytest.mark.parametrize("command", ["gen", "solve", "inpaint", "bench"])
    def test_spec_options_parse_to_the_field_type(self, command):
        options = list(self._spec_options(command))
        assert options
        for action, kind in options:
            args = build_parser().parse_args(
                [command, *self.REQUIRED.get(command, []),
                 action.option_strings[0], self.SAMPLES[kind]])
            value = getattr(args, action.dest)
            assert type(value) is kind and value == kind(self.SAMPLES[kind])

    # solve's is test_unset_flags_keep_the_spec_defaults
    @pytest.mark.parametrize("command, suite, fixed", [
        ("gen", Suite.SINGLE, {"ranks": (2,)}),
        ("inpaint", Suite.INPAINT, {"m": 128, "n": 128})])
    def test_unset_options_keep_the_field_defaults(self, command, suite, fixed):
        args = build_parser().parse_args([command, *self.REQUIRED.get(command, [])])
        assert _spec(args, suite, **fixed) == ExperimentSpec(
            suite, trials=1, **fixed)

    def test_bench_seed_unset_keeps_the_config_seed(self):
        args = build_parser().parse_args(["bench", *self.REQUIRED["bench"]])
        assert args.seed is None

    def test_gen_rank_required_and_solver_choices(self, capsys):
        assert cli_main(["gen", "--out", "p"]) == 1
        assert "--rank" in capsys.readouterr().err
        for command in ("solve", "inpaint"):
            (solver,) = [a for a, _ in self._spec_options(command)
                         if a.dest == "solver"]
            assert solver.choices == ["ts1-it", "ts1-s1", "ts1-s2", "nuclear"]


class TestInferredRank:
    # solve --in without --rank counts the truth's singular values above
    # sigma_1 * max(m, n) * eps, numpy's matrix_rank rule
    @pytest.mark.parametrize("cov", [0.0, 0.7, 0.95])
    @pytest.mark.parametrize("rank", [1, 19])
    def test_matches_numpy_matrix_rank(self, tmp_path, capsys, cov, rank):
        prefix = str(tmp_path / "prob")
        assert cli_main(["gen", "--m", "30", "--n", "20", "--rank", str(rank),
                         "--cov", str(cov), "--seed", "3", "--out", prefix]) == 0
        inferred, truth, _ = _load_problem(prefix, None)
        assert inferred == np.linalg.matrix_rank(truth) == rank


class TestBench:
    def test_bench_writes_csv(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(
            "[experiment]\nsuite = single\nm = 30\nn = 30\nranks = 2\n"
            "sr = 0.5\ntrials = 2\nsolvers = ts1-s2\nseed = 4\n"
            "[solver]\nmax_iters = 2000\n")
        out = tmp_path / "records.csv"
        assert cli_main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + 2 trials

    def test_success_curve_emits_aggregate(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "[experiment]\nsuite = success-curve\nm = 30\nn = 30\n"
            "ranks = 2 3\nsr = 0.6\ntrials = 2\nsolvers = ts1-s1\nseed = 4\n"
            "[solver]\nmax_iters = 1000\na = 1.0\n")
        out = tmp_path / "curve_records.csv"
        assert cli_main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        curve = (tmp_path / "curve_records.csv.curve.csv").read_text().splitlines()
        assert curve[0] == "r,fr,success_rate,trials"
        assert len(curve) == 3

    def test_seed_flag_matches_config_seed(self, tmp_path):
        text = ("[experiment]\nsuite = single\nm = 20\nn = 20\nranks = 2\n"
                "sr = 0.6\ntrials = 2\nsolvers = ts1-s2\nseed = {}\n"
                "[solver]\nmax_iters = 300\n")
        rows = {}
        for name, seed, flag in [("config", 9, []), ("flag", 0, ["--seed", "9"])]:
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text.format(seed))
            out = tmp_path / f"{name}.csv"
            assert cli_main(["bench", "--config", str(cfg), "--out", str(out),
                             *flag]) == 0
            wall = CSV_COLUMNS.index("wall_time_seconds")
            rows[name] = [line.split(",")[:wall] + line.split(",")[wall + 1:]
                          for line in out.read_text().splitlines()]
        assert rows["flag"] == rows["config"]

    def test_missing_config_errors(self, capsys):
        assert cli_main(["bench", "--config", "/no/such.cfg",
                         "--out", "/tmp/x.csv"]) == 1
        assert "bench" in capsys.readouterr().err

    @pytest.mark.parametrize("text, named", [
        ("[solver]\nmax_iters = 10\n", "missing required key 'suite'"),
        ("[experiment]\nsuite = single\n[solver]\nmax_iter = 3\n",
         "unknown config key 'max_iter'"),
        ("[experiment]\nsuite = single\n[solver]\nmu = 1.5\n",
         "mu must lie in (0, 1), got 1.5"),
        ("[experiment]\nsuite = single\n[solver]\nmax_iters = 0\n",
         "max_iters at least 1"),
        ("[experiment]\nsuite = single\nm = 20\nn = 20\nranks = 2\n"
         "trials = 1\nsolvers = ts1-it\n[solver]\nlam = 0\n",
         "ts1-it requires lam * mu > 0")],
        ids=["missing-suite", "unknown-key", "mu-out-of-range", "max-iters-zero",
             "ts1-it-lam-zero"])
    def test_invalid_config_exits_1(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "records.csv"
        assert cli_main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestInpaint:
    def test_synthetic_pipeline(self, tmp_path, capsys):
        prefix = str(tmp_path / "img")
        code = cli_main(["inpaint", "--rank", "8", "--sr", "0.5",
                         "--noise", "0.05", "--seed", "2",
                         "--max-iters", "200", "--out", prefix])
        assert code == 0
        assert "psnr=" in capsys.readouterr().out
        rec = read_pgm(prefix + ".recovered.pgm")
        obs = read_pgm(prefix + ".observed.pgm")
        assert rec.shape == obs.shape == (128, 128)

    def test_pgm_input(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        write_pgm(src, synthetic_test_image(32, 32))
        assert cli_main(["inpaint", "--image", str(src), "--rank", "4",
                         "--sr", "0.6", "--max-iters", "200"]) == 0

    def test_heavy_noise_condition(self, capsys):
        # sparse observation plus strong additive noise
        assert cli_main(["inpaint", "--rank", "40", "--sr", "0.3",
                         "--noise", "0.2", "--seed", "1",
                         "--max-iters", "150"]) == 0
        assert "psnr=" in capsys.readouterr().out

    def test_rank_required(self, capsys):
        assert cli_main(["inpaint", "--sr", "0.5"]) == 1

    # inpaint prints rank_est= as solve does: exactly when the solve
    # estimated the rank, the value its bench row records
    @pytest.mark.parametrize("flags", [[], ["--rank-estimate", "6"]],
                             ids=["known-rank", "rank-estimate"])
    def test_prints_the_rank_estimate_its_bench_row_records(self, tmp_path,
                                                            capsys, flags):
        src = tmp_path / "in.pgm"
        write_pgm(src, synthetic_test_image(32, 32))
        cfg = tmp_path / "one.cfg"
        cfg.write_text(
            f"[experiment]\nsuite = inpaint\nimage = {src}\nranks = 4\n"
            "sr = 0.6\ntrials = 1\nsolvers = ts1-s1\nseed = 2\n"
            "[solver]\nmax_iters = 30\n"
            + ("rank_estimate = 6\n" if flags else ""))
        out = tmp_path / "one.csv"
        assert cli_main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        row = read_csv(out)[0]
        capsys.readouterr()
        assert cli_main(["inpaint", "--image", str(src), "--rank", "4",
                         "--sr", "0.6", "--solver", "ts1-s1", "--seed", "2",
                         "--max-iters", "30", *flags]) == 0
        printed = capsys.readouterr().out
        if flags:
            assert type(row.rank_estimated) is int
            assert (f" iterations={row.iterations} "
                    f"rank_est={row.rank_estimated} time=") in printed
        else:
            assert row.rank_estimated is None and "rank_est" not in printed

    def test_sample_above_maxval_exits_1(self, tmp_path, capsys):
        src = tmp_path / "big.pgm"
        src.write_bytes(b"P2\n2 2\n255\n300 4 5 6\n")
        assert cli_main(["inpaint", "--image", str(src), "--rank", "1"]) == 1
        assert "samples must lie in [0, 255]" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert cli_main(["gen", "--rank", "2", "--out", "/tmp/x",
                         "--no-such-flag"]) == 2

    def test_no_command(self, capsys):
        assert cli_main([]) == 2
