import numpy as np
import pytest

from loggas import Configuration, DiscreteMeasure, empirical_measure, pushforward
from loggas.io import (
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
            empirical_measure(Configuration(np.array([0, 1, 1j], dtype=complex)))
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
        records = [
            (0, 10, rng.standard_normal(3) + 1j * rng.standard_normal(3)),
            (0, 11, rng.standard_normal(3) + 1j * rng.standard_normal(3)),
            (1, 10, rng.standard_normal(3) + 1j * rng.standard_normal(3)),
        ]
        path = tmp_path / "samples.csv"
        write_samples_csv(path, records)
        data = read_samples_csv(path)
        assert len(data["values"]) == 9
        assert data["chain"].tolist() == [0, 0, 0, 0, 0, 0, 1, 1, 1]
        assert data["values"][0] == records[0][2][0]

    def test_byte_identical_rewrite(self, tmp_path):
        rng = np.random.default_rng(1)
        records = [(0, 5, rng.standard_normal(4).astype(complex))]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_samples_csv(p1, records)
        write_samples_csv(p2, records)
        assert p1.read_bytes() == p2.read_bytes()


    def test_bytes_match_per_element_repr(self, tmp_path):
        specials = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-309, 1e300,
                             -1e300, 1.0 / 3.0, -2.0 / 3.0])
        points = np.empty((2, len(specials)), dtype=complex)
        points.real = specials, -specials
        points.imag = specials[::-1], specials
        records = [(0, 7, points[0]), (3, 12, points[1])]
        path = tmp_path / "samples.csv"
        write_samples_csv(path, records)
        want = ["chain,sweep,particle,re,im"]
        for chain, sweep, pts in records:
            for k, p in enumerate(pts):
                want.append(f"{chain},{sweep},{k},{repr(float(p.real))},{repr(float(p.imag))}")
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()
        assert "0,7,1,-0.0,0.3333333333333333" in path.read_text()


class TestJson:
    def test_round_trip_and_determinism(self, tmp_path):
        obj = {"b": 2, "a": [1, 2, 3], "c": {"x": 0.1}}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(p1, obj)
        write_json(p2, obj)
        assert p1.read_bytes() == p2.read_bytes()
        assert read_json(p1) == obj
