import re

import numpy as np
import pytest

from ts1mc.matrixio import read_matrix_csv, read_pgm, write_matrix_csv, write_pgm
from ts1mc.problems import synthetic_test_image


def write_p2(path, image):
    """An ASCII (P2) PGM of ``image``, quantized as ``write_pgm`` does.

    The package writes only P5; P2 files come from other programs."""
    raster = np.clip(np.rint(np.asarray(image) * 255.0), 0, 255).astype(int)
    lines = [f"P2\n{raster.shape[1]} {raster.shape[0]}\n255\n"]
    lines += [" ".join(map(str, row)) + "\n" for row in raster]
    path.write_bytes("".join(lines).encode("ascii"))


class TestPgm:
    @pytest.mark.parametrize("binary", [True, False])
    def test_round_trip_quantized(self, tmp_path, binary):
        img = synthetic_test_image(17, 23)
        path = tmp_path / "img.pgm"
        (write_pgm if binary else write_p2)(path, img)
        back = read_pgm(path)
        assert back.shape == img.shape
        quantized = np.clip(np.rint(img * 255), 0, 255) / 255
        assert np.abs(back - quantized).max() <= 1e-12

    def test_p5_p2_agree(self, tmp_path):
        img = synthetic_test_image(9, 11)
        write_pgm(tmp_path / "a.pgm", img)
        write_p2(tmp_path / "b.pgm", img)
        assert np.array_equal(read_pgm(tmp_path / "a.pgm"),
                              read_pgm(tmp_path / "b.pgm"))

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P2\n# a comment\n2 2\n# another\n255\n0 128\n255 64\n")
        img = read_pgm(path)
        assert img.shape == (2, 2)
        assert img[1, 0] == pytest.approx(1.0)
        assert img[0, 1] == pytest.approx(128 / 255)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "wide.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x01")
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ValueError):
            read_pgm(path)

    @pytest.mark.parametrize("content", [
        b"P2\n2 1\n255\n300 4\n",           # would overflow an 8-bit sample
        b"P2\n2 2\n100\n200 5 1 1\n",       # above maxval, would read as 2.0
        b"P2\n2 1\n255\n-1 4\n",
        b"P5\n2 1\n100\n\xc8\x05",         # byte 200 under maxval 100
    ], ids=["p2-overflow", "p2-above-maxval", "p2-negative", "p5-above-maxval"])
    def test_sample_outside_maxval_rejected(self, tmp_path, content):
        path = tmp_path / "bad.pgm"
        path.write_bytes(content)
        with pytest.raises(ValueError, match="samples must lie in"):
            read_pgm(path)

    def test_clipping_out_of_range(self, tmp_path):
        path = tmp_path / "clip.pgm"
        write_pgm(path, np.array([[-0.5, 1.5]]))
        back = read_pgm(path)
        assert back[0, 0] == 0.0 and back[0, 1] == 1.0


class TestMatrixCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-8, 8, size=(7, 5))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, x)
        assert np.array_equal(read_matrix_csv(path), x)

    def test_nan_round_trip(self, tmp_path):
        x = np.array([[1.0, np.nan], [np.nan, 4.0]])
        path = tmp_path / "mask.csv"
        write_matrix_csv(path, x)
        back = read_matrix_csv(path)
        assert np.array_equal(np.isnan(back), np.isnan(x))
        assert back[0, 0] == 1.0 and back[1, 1] == 4.0

    def test_single_row(self, tmp_path):
        path = tmp_path / "row.csv"
        write_matrix_csv(path, np.array([1.0, 2.0, 3.0]))
        back = read_matrix_csv(path)
        assert back.shape == (1, 3)

    @pytest.mark.parametrize("content", ["", "\n", "\n  \n\n"],
                             ids=["empty", "blank-line", "blank-lines"])
    def test_file_without_values_rejected(self, tmp_path, content):
        path = tmp_path / "none.csv"
        path.write_text(content)
        message = f"{path}: holds no values"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_matrix_csv(path)

    def test_blank_lines_between_rows_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("1,2\n\n3,4\n\n")
        assert np.array_equal(read_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])
