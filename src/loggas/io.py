"""CSV and JSON interchange formats.

Floats are written with repr (shortest round-trip form) and files end
with a newline, so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import json
from itertools import repeat
from pathlib import Path

import numpy as np

from .model import DiscreteMeasure


def write_measure_csv(path, mu: DiscreteMeasure) -> None:
    """Sphere measures as x1,x2,x3,weight; plane measures as re,im,weight
    (collapsed to x,weight when every atom is real)."""
    pos = mu.positions
    if mu.side == "sphere":
        header, columns = "x1,x2,x3,weight", list(pos.T)
    elif np.all(pos.imag == 0.0):
        header, columns = "x,weight", [pos.real]
    else:
        header, columns = "re,im,weight", [pos.real, pos.imag]
    rows = (",".join(repr(float(v)) for v in row) for row in zip(*columns, mu.weights))
    Path(path).write_text("\n".join([header, *rows]) + "\n")


_BLOCK_ROWS = 4096  # rows parsed together: bounds the memory their split fields take


def _parse_rows(rows: list[str], kinds: tuple) -> list[np.ndarray]:
    """Comma-separated ``rows`` as columns, column k converted by ``kinds[k]``.

    Raises ValueError unless every row is one parseable field per column
    and every float is finite.
    """
    width = len(kinds)
    counts = {c + 1 for c in map(str.count, rows, [","] * len(rows))}
    if counts != {width}:
        raise ValueError(f"expected {width} fields, got {max(counts - {width})}")
    # With width fields on every row, column k is every width-th field.
    fields = ",".join(rows).split(",")
    columns = [np.array(list(map(kind, fields[k::width]))) for k, kind in enumerate(kinds)]
    if not all(np.isfinite(c).all() for c, kind in zip(columns, kinds) if kind is float):
        raise ValueError("non-finite value")
    return columns


def _read_columns(path, layouts: dict) -> tuple[str, list[np.ndarray]]:
    """A CSV file's header, a key of ``layouts``, and its data columns typed
    by ``layouts[header]``.  Blank space around the text is skipped, and
    ValueError names the file when no header or no data row is left, and
    the line (numbered as in the file) for a bad row."""
    text = Path(path).read_text()
    body = text.lstrip()
    first_row = text.count("\n", 0, len(text) - len(body)) + 2  # line number of rows[0]
    lines = body.rstrip().splitlines()
    del text, body  # frees the file's text before the rows are parsed
    if not lines:
        raise ValueError(f"{path}: empty file")
    header, rows = lines[0], lines[1:]
    if header not in layouts:
        raise ValueError(f"{path}: unrecognized CSV header: {header}")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    blocks = []
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        try:
            blocks.append(_parse_rows(block, layouts[header]))
        except ValueError:
            # Parse the block's rows one by one to name the first bad line.
            for k, row in enumerate(block):
                try:
                    _parse_rows([row], layouts[header])
                except ValueError as e:
                    raise ValueError(f"{path}, line {first_row + start + k}: {e}") from e
            raise
    return header, [np.concatenate(column) for column in zip(*blocks)]


def read_measure_csv(path) -> DiscreteMeasure:
    """A measure as ``write_measure_csv`` writes it; bad input raises
    ValueError naming the file, and the line for a bad row."""
    headers = ("x1,x2,x3,weight", "x,weight", "re,im,weight")
    layouts = {header: (float,) * (header.count(",") + 1) for header in headers}
    header, (*coords, weights) = _read_columns(path, layouts)
    if header == "x1,x2,x3,weight":
        return DiscreteMeasure(np.column_stack(coords), weights, side="sphere")
    if header == "x,weight":
        return DiscreteMeasure(coords[0].astype(complex), weights, side="plane")
    return DiscreteMeasure(coords[0] + 1j * coords[1], weights, side="plane")


def write_samples_csv(path, samples, sweeps) -> None:
    """Samples as chain,sweep,particle,re,im rows.

    ``samples`` is a (C, K, n) array: sample k of chain c is the n points
    ``samples[c, k]``, recorded at sweep ``sweeps[k]``.  Rows are formatted
    one recorded sample at a time, so no chain-wide list of floats is held.
    """
    prefixes = [f",{i}," for i in range(samples.shape[2])]  # shared by every sample
    lines = ["chain,sweep,particle,re,im"]
    for chain, recorded in enumerate(samples):
        for sweep, pts in zip(sweeps, recorded):
            re, im = map(repr, pts.real.tolist()), map(repr, pts.imag.tolist())
            lines += map("".join, zip(repeat(f"{chain},{sweep}"), prefixes, re, repeat(","), im))
    Path(path).write_text("\n".join(lines) + "\n")


def read_samples_csv(path) -> dict:
    """Returns arrays: chain, sweep, particle (ints) and values (complex); bad
    input raises ValueError naming the file, and the line for a bad row."""
    layout = {"chain,sweep,particle,re,im": (int, int, int, float, float)}
    _, (chains, sweeps, particles, re, im) = _read_columns(path, layout)
    values = np.empty(len(re), dtype=complex)
    values.real, values.imag = re, im
    return {"chain": chains, "sweep": sweeps, "particle": particles, "values": values}


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())
