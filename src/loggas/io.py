"""CSV and JSON interchange formats.

Floats are written with repr (shortest round-trip form) and files end
with a newline, so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .model import DiscreteMeasure


def _fmt(v: float) -> str:
    return repr(float(v))


def write_measure_csv(path, mu: DiscreteMeasure) -> None:
    """Sphere measures as x1,x2,x3,weight; plane measures as re,im,weight
    (collapsed to x,weight when every atom is real)."""
    lines = []
    if mu.side == "sphere":
        lines.append("x1,x2,x3,weight")
        for p, w in zip(mu.positions, mu.weights):
            lines.append(f"{_fmt(p[0])},{_fmt(p[1])},{_fmt(p[2])},{_fmt(w)}")
    elif np.all(mu.positions.imag == 0.0):
        lines.append("x,weight")
        for p, w in zip(mu.positions, mu.weights):
            lines.append(f"{_fmt(p.real)},{_fmt(w)}")
    else:
        lines.append("re,im,weight")
        for p, w in zip(mu.positions, mu.weights):
            lines.append(f"{_fmt(p.real)},{_fmt(p.imag)},{_fmt(w)}")
    Path(path).write_text("\n".join(lines) + "\n")


def _read_lines(path) -> tuple[int, list[str]]:
    """The lines of a text file, surrounding blank space stripped, and the
    1-based number in the file of the first of them.

    Raises ValueError naming the file when nothing is left.
    """
    text = Path(path).read_text()
    body = text.lstrip()
    lines = body.rstrip().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    return text[: len(text) - len(body)].count("\n") + 1, lines


def read_measure_csv(path) -> DiscreteMeasure:
    _, text = _read_lines(path)
    header = text[0].split(",")
    rows = np.array([[float(c) for c in line.split(",")] for line in text[1:]])
    if header == ["x1", "x2", "x3", "weight"]:
        return DiscreteMeasure(rows[:, :3], rows[:, 3], side="sphere")
    if header == ["x", "weight"]:
        return DiscreteMeasure(rows[:, 0].astype(complex), rows[:, 1], side="plane")
    if header == ["re", "im", "weight"]:
        return DiscreteMeasure(rows[:, 0] + 1j * rows[:, 1], rows[:, 2], side="plane")
    raise ValueError(f"unrecognized measure CSV header: {header}")


def write_samples_csv(path, records) -> None:
    """Samples as chain,sweep,particle,re,im rows.

    ``records`` yields (chain_index, sweep_index, points) triples.
    """
    lines = ["chain,sweep,particle,re,im"]
    for chain, sweep, points in records:
        pts = np.asarray(points, dtype=complex)
        lines += [
            f"{chain},{sweep},{k},{re!r},{im!r}"
            for k, (re, im) in enumerate(zip(pts.real.tolist(), pts.imag.tolist()))
        ]
    Path(path).write_text("\n".join(lines) + "\n")


def read_samples_csv(path) -> dict:
    """Returns arrays: chain, sweep, particle (ints) and values (complex).

    Raises ValueError naming the file when it is empty, has another header
    or has no data rows, and naming the file and the line (numbered as in
    the file) for a row that is not five parseable fields or holds a
    non-finite value.
    """
    first, text = _read_lines(path)
    if text[0] != "chain,sweep,particle,re,im":
        raise ValueError(f"{path}: unrecognized samples CSV header: {text[0]}")
    if len(text) == 1:
        raise ValueError(f"{path}: no data rows")
    chains, sweeps, particles, values = [], [], [], []
    for lineno, line in enumerate(text[1:], start=first + 1):
        try:
            c, s, k, re, im = line.split(",")
            chains.append(int(c))
            sweeps.append(int(s))
            particles.append(int(k))
            values.append(complex(float(re), float(im)))
        except ValueError as e:
            raise ValueError(f"{path}, line {lineno}: {e}") from e
    values = np.array(values)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{path}, line {first + 1 + bad[0]}: non-finite value {values[bad[0]]}")
    return {
        "chain": np.array(chains),
        "sweep": np.array(sweeps),
        "particle": np.array(particles),
        "values": values,
    }


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())
