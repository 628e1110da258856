"""CSV and JSON interchange formats.

Floats are written with repr (shortest round-trip form) and files end
with a newline, so identical inputs produce byte-identical outputs.
``samples.csv`` is parsed by one ``np.loadtxt`` call over the open file:
a row is three integers and two finite floats, comma-separated, with no
comments or quotes.  Blank lines may only precede the header or end the file.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import chain, dropwhile, repeat, takewhile
from pathlib import Path

import numpy as np

from .model import DiscreteMeasure

_HEADER = "chain,sweep,particle,re,im"


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


def write_samples_csv(file, samples, sweeps, first_chain: int = 0) -> None:
    """Samples as chain,sweep,particle,re,im rows.

    ``samples`` is a (C, K, n) array: sample k of chain ``first_chain + c``
    is the n points ``samples[c, k]``, recorded at sweep ``sweeps[k]``.
    ``file`` is a path, which is created or truncated, or the descriptor of
    an open file, whose rows are appended where it stands.  Rows from chain
    0 start with the header; rows from a later chain continue a file.  Rows
    are written one recorded sample at a time, so no chain-wide list of
    rows is held.
    """
    prefixes = [f",{i}," for i in range(samples.shape[2])]  # shared by every sample
    with open(file, "w", closefd=not isinstance(file, int)) as f:
        if first_chain == 0:
            f.write(_HEADER + "\n")
        for c, recorded in enumerate(samples, first_chain):
            for sweep, pts in zip(sweeps, recorded):
                re, im = map(repr, pts.real.tolist()), map(repr, pts.imag.tolist())
                rows = zip(repeat(f"{c},{sweep}"), prefixes, re, repeat(","), im, repeat("\n"))
                f.write("".join(map("".join, rows)))


_ROW = np.dtype({"names": _HEADER.split(","), "formats": ["i8", "i8", "i8", "f8", "f8"]})
_load_rows = partial(np.loadtxt, dtype=_ROW, delimiter=",", comments=None, ndmin=1)


def _rows(f):
    """The rest of the open file ``f`` up to its first blank line; ValueError
    if a row follows that line."""
    yield from takewhile(lambda line: not line.isspace(), f)
    if not all(map(str.isspace, f)):
        raise ValueError("blank line")


def _row_error(line: str) -> str:
    """Why np.loadtxt rejects the row ``line``: the field count, or else the
    first field that fails in a row whose other fields are 0."""
    fields = line.rstrip("\r\n").split(",")
    if len(fields) != len(_ROW.names):
        return f"expected {len(_ROW.names)} fields ({_HEADER}), found {len(fields)}"
    for j, (name, field) in enumerate(zip(_ROW.names, fields)):
        try:
            _load_rows([",".join(["0"] * j + [field] + ["0"] * (len(fields) - j - 1))])
        except ValueError:
            kind = "an integer" if _ROW[name].kind == "i" else "a float"
            return f"{name}: cannot read {field!r} as {kind}"
    return f"cannot read the row as {_HEADER}"


def _first_bad_line(lines: list[str]) -> tuple[int, str] | None:
    """The index in ``lines`` of the first row that np.loadtxt rejects alone,
    or else of the first blank line, with the reason; None if neither exists.

    The rows before the first blank line are bisected: a range holds a bad
    row when it fails to load, so about log2(rows) calls find the first.
    """
    end = next((i for i, line in enumerate(lines) if line.isspace()), len(lines))
    lo, hi = 0, end  # any bad row before lines[lo] has been ruled out
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _load_rows(lines[lo:mid])
            lo = mid
        except ValueError:
            hi = mid
    if lo < end:
        try:
            _load_rows(lines[lo : lo + 1])
        except ValueError:
            return lo, _row_error(lines[lo])
    return (end, "blank line") if end < len(lines) else None


def read_samples_csv(path) -> dict:
    """Returns arrays: chain, sweep, particle (ints) and values (complex); bad
    input raises ValueError naming the file, and the line for a bad row."""
    with open(path) as f:
        numbered = dropwhile(lambda item: item[1].isspace(), enumerate(f, 2))
        start, header = next(numbered, (0, ""))  # start: the line number of the first row
        if not header:
            raise ValueError(f"{path}: empty file")
        if header.strip() != _HEADER:
            raise ValueError(f"{path}: unrecognized CSV header: {header.strip()}")
        rows = _rows(f)
        try:
            first = next(rows, None)
            table = None if first is None else _load_rows(chain([first], rows))
        except ValueError:
            f.seek(0)
            found = _first_bad_line(f.readlines()[start - 1 :])
            if found is None:
                raise
            raise ValueError(f"{path}, line {start + found[0]}: {found[1]}") from None
    if table is None:
        raise ValueError(f"{path}: no data rows")
    values = np.empty(len(table), dtype=complex)
    values.real, values.imag = table["re"], table["im"]
    if not np.isfinite(values).all():
        raise ValueError(f"{path}, line {start + np.isfinite(values).argmin()}: non-finite value")
    return {"chain": table["chain"], "sweep": table["sweep"], "particle": table["particle"],
            "values": values}


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
