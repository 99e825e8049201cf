import numpy as np
import pytest

from ts1mc.bench import read_csv
from ts1mc.cli import cli_main
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
    # read back from files must carry the same descriptors.
    @pytest.mark.parametrize("flags", [
        [], ["--solver", "ts1-s1", "--rank-estimate", "5"]],
        ids=["known-rank", "rank-estimate"])
    def test_gen_then_solve_matches_solve_on_the_fly(self, tmp_path, capsys,
                                                     flags):
        prefix = str(tmp_path / "prob")
        assert cli_main(["gen", "--out", prefix] + self.ARGS) == 0
        capsys.readouterr()
        assert cli_main(["solve", "--in", prefix, "--rank", "3"] + flags) == 0
        from_files = self._metrics(capsys.readouterr().out)
        assert cli_main(["solve"] + self.ARGS + flags) == 0
        assert self._metrics(capsys.readouterr().out) == from_files


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

    def test_negative_lam(self, capsys):
        assert cli_main(["solve", "--m", "20", "--n", "20", "--rank", "2",
                         "--solver", "nuclear", "--lam", "-1"]) == 1
        assert "lam must be nonnegative" in capsys.readouterr().err


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

    def test_missing_config_errors(self, capsys):
        assert cli_main(["bench", "--config", "/no/such.cfg",
                         "--out", "/tmp/x.csv"]) == 1
        assert "bench" in capsys.readouterr().err

    @pytest.mark.parametrize("text, named", [
        ("[solver]\nmax_iters = 10\n", "missing required key 'suite'"),
        ("[experiment]\nsuite = single\n[solver]\nmax_iter = 3\n",
         "unknown config key 'max_iter'")], ids=["missing-suite", "unknown-key"])
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


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert cli_main(["gen", "--rank", "2", "--out", "/tmp/x",
                         "--no-such-flag"]) == 2

    def test_no_command(self, capsys):
        assert cli_main([]) == 2
