import json
import warnings

import numpy as np
import pytest

import loggas.io
from loggas import DiscreteMeasure, pushforward
from loggas.io import read_samples_csv, write_json, write_measure_csv, write_samples_csv


def _fields(path):
    """The header and the rows of a CSV file, each row as a list of floats."""
    header, *rows = path.read_text().splitlines()
    return header, [[float(v) for v in row.split(",")] for row in rows]


class TestMeasureCsv:
    # float() of each written field gives back the exact bits
    def test_real_measure_text(self, tmp_path):
        mu = DiscreteMeasure(np.array([-1.5, 0.25, 3.0], dtype=complex),
                             np.array([0.2, 0.3, 0.5]))
        path = tmp_path / "m.csv"
        write_measure_csv(path, mu)
        header, rows = _fields(path)
        assert header == "x,weight"
        assert np.array(rows).tobytes() == np.column_stack([mu.positions.real, mu.weights]).tobytes()

    def test_complex_measure_text(self, tmp_path):
        mu = DiscreteMeasure(np.array([1 + 2j, -0.5j]), np.array([0.4, 0.6]))
        path = tmp_path / "m.csv"
        write_measure_csv(path, mu)
        header, rows = _fields(path)
        assert header == "re,im,weight"
        want = np.column_stack([mu.positions.real, mu.positions.imag, mu.weights])
        assert np.array(rows).tobytes() == want.tobytes()

    def test_sphere_measure_text(self, tmp_path):
        mu = pushforward(
            DiscreteMeasure(np.array([0, 1, 1j], dtype=complex), np.full(3, 1 / 3))
        )
        path = tmp_path / "s.csv"
        write_measure_csv(path, mu)
        header, rows = _fields(path)
        assert header == "x1,x2,x3,weight"
        assert np.array(rows).tobytes() == np.column_stack([mu.positions, mu.weights]).tobytes()


@pytest.mark.parametrize("text", ["", "\n \n"])
def test_empty_file_names_the_file(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="empty.csv: empty file"):
        read_samples_csv(path)


HEADER = "chain,sweep,particle,re,im"


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
        assert all(data[k].dtype == np.int64 for k in ("chain", "sweep", "particle"))
        assert data["values"].tobytes() == samples.tobytes()

    def test_unknown_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="bad.csv: unrecognized CSV header: a,b"):
            read_samples_csv(path)

    @pytest.mark.parametrize("row, reason", [
        ("0,0,1,1.0,abc", ""),
        ("0,0,1,1.0", ""),
        ("0,0,1,1.0,0.5,2.0", ""),
        ("0,0,1.5,1.0,0.5", ""),
        ("0,0,1,1.0,nan", "non-finite value"),
        ("0,0,1,1.0,#0.5", ""),
        ("#0,0,1,1.0,0.5", ""),
        ("", "blank line"),
        (" ", "blank line"),
    ], ids=["non-numeric", "short-row", "long-row", "float-particle", "nan", "hash",
            "hash-first", "empty-line", "space-line"])
    def test_bad_row_names_file_and_line(self, tmp_path, row, reason):
        # numbered as in the file, leading blank lines counted; the reason
        # may be NumPy's own wording, which varies by version
        path = tmp_path / "s.csv"
        path.write_text(f"\n{HEADER}\n0,0,0,0.5,0.5\n{row}\n0,0,2,0.5,0.5\n")
        with pytest.raises(ValueError) as error:
            read_samples_csv(path)
        assert str(error.value).startswith(f"{path}, line 4: {reason}")

    @pytest.mark.parametrize("row, reason", [
        ("0,0,1,1.0,x", "im: cannot read 'x' as a float"),
        ("0,0,1.5,1.0,0.5", "particle: cannot read '1.5' as an integer"),
        ("0,0,1,1.0", "expected 5 fields (chain,sweep,particle,re,im), found 4"),
        ("0,0,1,1.0,0.5,2.0", "expected 5 fields (chain,sweep,particle,re,im), found 6"),
    ], ids=["bad-float", "bad-int", "four-fields", "six-fields"])
    def test_bad_row_reason_names_the_field(self, tmp_path, row, reason):
        path = tmp_path / "s.csv"
        path.write_text(f"{HEADER}\n0,0,0,0.5,0.5\n{row}\n")
        with pytest.raises(ValueError) as error:
            read_samples_csv(path)
        assert str(error.value) == f"{path}, line 3: {reason}"
        assert "row " not in reason and "usecols" not in reason

    @pytest.mark.parametrize("tail", ["", "\n", "\n \n\n"], ids=["none", "empty", "mixed"])
    def test_trailing_blank_lines_are_skipped(self, tmp_path, tail):
        path = tmp_path / "s.csv"
        path.write_text(f"\n\n{HEADER}\n0,0,0,0.5,-0.5\n0,0,1,1.5,2.5\n{tail}")
        assert read_samples_csv(path)["values"].tolist() == [0.5 - 0.5j, 1.5 + 2.5j]

    def test_header_only_has_no_data_rows(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(f"{HEADER}\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="s.csv: no data rows"):
                read_samples_csv(path)

    def test_crlf_file_parses_to_the_same_values(self, tmp_path):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        path, crlf = tmp_path / "samples.csv", tmp_path / "crlf.csv"
        write_samples_csv(path, samples, [1, 2, 3])
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        want, got = read_samples_csv(path), read_samples_csv(crlf)
        assert all(np.array_equal(want[k], got[k]) for k in ("chain", "sweep", "particle"))
        assert got["values"].tobytes() == samples.tobytes()

    def test_bad_row_far_into_the_file(self, tmp_path):
        # the error path rescans the file; the line it names is the file's
        n = 4100
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
        with pytest.raises(ValueError, match=f"samples.csv, line {n - 1}: "):
            read_samples_csv(path)

    @pytest.mark.parametrize("bad", [0, 1, 2047, 4098, 4099])
    def test_bad_row_found_by_bisection(self, tmp_path, monkeypatch, bad):
        # 1 load of all 4,100 rows, 13 of halving ranges, 1 of the row found
        # and at most 5 for the reason: not one load per row
        rows = [f"0,0,{i},0.5,0.5" for i in range(4100)]
        rows[bad] = f"0,0,{bad},0.5,x"
        path = tmp_path / "samples.csv"
        path.write_text("\n".join([HEADER, *rows]) + "\n")
        loads, real_load = [], loggas.io._load_rows
        monkeypatch.setattr(loggas.io, "_load_rows",
                            lambda lines: loads.append(1) or real_load(lines))
        with pytest.raises(ValueError) as error:
            read_samples_csv(path)
        assert str(error.value) == f"{path}, line {bad + 2}: im: cannot read 'x' as a float"
        assert len(loads) <= 20

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
        assert json.loads((p1).read_text()) == obj
