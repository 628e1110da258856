import numpy as np
import pytest

from loggas import DiscreteMeasure, empirical_measure, pushforward
from loggas.io import (
    _BLOCK_ROWS,
    read_json,
    read_measure_csv,
    read_samples_csv,
    write_json,
    write_measure_csv,
    write_samples_csv,
)


class TestMeasureCsv:
    def test_real_measure_round_trip(self, tmp_path):
        mu = DiscreteMeasure(np.array([-1.5, 0.25, 3.0], dtype=complex),
                             np.array([0.2, 0.3, 0.5]))
        path = tmp_path / "m.csv"
        write_measure_csv(path, mu)
        assert path.read_text().splitlines()[0] == "x,weight"
        back = read_measure_csv(path)
        assert np.array_equal(back.positions, mu.positions)
        assert np.array_equal(back.weights, mu.weights)

    def test_complex_measure_round_trip(self, tmp_path):
        mu = DiscreteMeasure(np.array([1 + 2j, -0.5j]), np.array([0.4, 0.6]))
        path = tmp_path / "m.csv"
        write_measure_csv(path, mu)
        assert path.read_text().splitlines()[0] == "re,im,weight"
        back = read_measure_csv(path)
        assert np.array_equal(back.positions, mu.positions)

    def test_sphere_measure_round_trip(self, tmp_path):
        mu = pushforward(
            empirical_measure(np.array([0, 1, 1j], dtype=complex))
        )
        path = tmp_path / "s.csv"
        write_measure_csv(path, mu)
        assert path.read_text().splitlines()[0] == "x1,x2,x3,weight"
        back = read_measure_csv(path)
        assert back.side == "sphere"
        assert np.array_equal(back.positions, mu.positions)

    def test_unknown_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_measure_csv(path)

    @pytest.mark.parametrize("row, reason", [
        ("1.0,abc", "could not convert string to float: 'abc'"),
        ("1.0", "expected 2 fields, got 1"),
        ("1.0,nan", "non-finite value"),
    ], ids=["non-numeric", "short-row", "nan-weight"])
    def test_bad_row_names_file_and_line(self, tmp_path, row, reason):
        path = tmp_path / "m.csv"
        path.write_text(f"\nx,weight\n0.5,0.5\n{row}\n")
        with pytest.raises(ValueError) as error:
            read_measure_csv(path)
        assert str(error.value).startswith(f"{path}, line 4: {reason}")


@pytest.mark.parametrize("reader", [read_measure_csv, read_samples_csv])
@pytest.mark.parametrize("text", ["", "\n \n"])
def test_empty_file_names_the_file(tmp_path, reader, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="empty.csv"):
        reader(path)


class TestSamplesCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((2, 2, 3)) + 1j * rng.standard_normal((2, 2, 3))
        path = tmp_path / "samples.csv"
        write_samples_csv(path, samples, [10, 11])
        data = read_samples_csv(path)
        assert len(data["values"]) == 12
        assert data["chain"].tolist() == [0] * 6 + [1] * 6
        assert data["sweep"].tolist() == [10, 10, 10, 11, 11, 11] * 2
        assert data["particle"].tolist() == [0, 1, 2] * 4
        assert data["values"].tobytes() == samples.tobytes()

    def test_rows_past_the_first_block(self, tmp_path):
        # the reader converts rows in blocks; a bad row in a later block is
        # still named by its line in the file
        n = _BLOCK_ROWS + 10
        rng = np.random.default_rng(2)
        points = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        path = tmp_path / "samples.csv"
        write_samples_csv(path, points.reshape(1, 1, n), range(3, 4))
        data = read_samples_csv(path)
        assert data["particle"].tolist() == list(range(n))
        assert data["values"].tobytes() == points.tobytes()
        lines = path.read_text().splitlines()
        lines[n - 2] = "0,3,x,0.5,0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"samples.csv, line {n - 1}: invalid literal"):
            read_samples_csv(path)

    def test_byte_identical_rewrite(self, tmp_path):
        rng = np.random.default_rng(1)
        samples = rng.standard_normal((1, 1, 4)).astype(complex)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_samples_csv(p1, samples, [5])
        write_samples_csv(p2, samples, [5])
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_match_per_element_repr(self, tmp_path):
        specials = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-309, 1e300,
                             -1e300, 1.0 / 3.0, -2.0 / 3.0])
        samples = np.empty((2, 2, len(specials)), dtype=complex)
        samples.real = specials, -specials
        samples.imag = specials[::-1], specials
        path = tmp_path / "samples.csv"
        write_samples_csv(path, samples, [7, 12])
        want = ["chain,sweep,particle,re,im"]
        for chain in range(2):
            for sweep, pts in zip([7, 12], samples[chain]):
                for k, p in enumerate(pts):
                    want.append(f"{chain},{sweep},{k},{repr(float(p.real))},{repr(float(p.imag))}")
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()
        assert "0,7,1,-0.0,0.3333333333333333" in path.read_text()
        assert read_samples_csv(path)["values"].tobytes() == samples.tobytes()


class TestJson:
    def test_round_trip_and_determinism(self, tmp_path):
        obj = {"b": 2, "a": [1, 2, 3], "c": {"x": 0.1}}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(p1, obj)
        write_json(p2, obj)
        assert p1.read_bytes() == p2.read_bytes()
        assert read_json(p1) == obj
