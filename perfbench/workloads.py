"""The benchmark's workloads: inputs made from the seed, commands, output checks.

One op is the list of ``loggas`` commands a workload runs; each command is
a fresh child process.  Every input the program sees (JSON configs and the
samples CSV for ``analyze``) is written here from the seed, and every
output is checked here with code of the benchmark's own, never with
``loggas`` functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

KS_LIMIT = 0.05
ENERGY_LIMIT = 0.05
SPHERICAL_ENERGY = 0.5


def op_seed(seed: int, k: int) -> int:
    """The CLI seed of op k in a run with benchmark seed ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic sup |F_n - F|."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    f = cdf(xs)
    return float(max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n)))


def cauchy_cdf(x):
    return 0.5 + np.arctan(x) / np.pi


def spherical_radial_cdf(r):
    return r * r / (1.0 + r * r)


def uniform_angle_cdf(a):
    return a / (2.0 * np.pi)


def read_sample_values(path: Path) -> np.ndarray:
    """The re + i im column of a chain,sweep,particle,re,im samples CSV."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 3] + 1j * table[:, 4]


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


@dataclass(frozen=True)
class Op:
    """One op's working directory and the seed its commands get."""

    dir: Path
    seed: int


@dataclass(frozen=True)
class SampleWorkload:
    """``loggas sample`` with one config; checked by KS against the limit law."""

    name: str
    support: str
    potential: str
    n: int
    chains: int
    sweeps: int
    burn_in: int

    @property
    def moves(self) -> int:
        return self.n * self.sweeps * self.chains

    def prepare(self, seed: int, workdir: Path) -> None:
        return None

    def commands(self, op: Op, run_input) -> list[list[str]]:
        config = {
            "command": "sample",
            "seed": op.seed,
            "model": {
                "support": self.support,
                "beta": 2.0,
                "n": self.n,
                "potential": {"name": self.potential},
            },
            "chain": {"sweeps": self.sweeps, "burn_in": self.burn_in, "chains": self.chains},
        }
        path = op.dir / "sample.json"
        write_json(path, config)
        return [["sample", "--config", str(path), "--out", str(op.dir / "out")]]

    def check(self, op: Op, run_input, work_s: list[float]) -> tuple[list[str], dict]:
        values = read_sample_values(op.dir / "out" / "samples.csv")
        errors = []
        rows = self.chains * (self.sweeps - self.burn_in) * self.n
        if len(values) != rows:
            errors.append(f"samples.csv has {len(values)} rows, expected {rows}")
        if self.support == "real_line":
            stats = {"ks": ks_statistic(values.real, cauchy_cdf)}
        else:
            stats = {
                "ks_radial": ks_statistic(np.abs(values), spherical_radial_cdf),
                "ks_angular": ks_statistic(np.mod(np.angle(values), 2 * np.pi),
                                           uniform_angle_cdf),
            }
        errors += [f"{k} = {v:.4g} > {KS_LIMIT}" for k, v in stats.items() if not v <= KS_LIMIT]
        return errors, {"moves_per_s": self.moves / work_s[0], **stats}


@dataclass(frozen=True)
class EquilibriumWorkload:
    """``loggas equilibrium`` on a planar grid; checked against E = 1/2."""

    name: str
    resolution: int
    half_width: float = 4.0
    tol: float = 1e-4

    def prepare(self, seed: int, workdir: Path) -> None:
        return None

    def commands(self, op: Op, run_input) -> list[list[str]]:
        w = self.half_width
        config = {
            "command": "equilibrium",
            "seed": op.seed,
            "model": {
                "support": "complex_plane",
                "beta": 2.0,
                "n": 1,
                "potential": {"name": "spherical"},
            },
            "grid": {"window": [[-w, w], [-w, w]], "resolution": self.resolution,
                     "tol": self.tol},
        }
        path = op.dir / "equilibrium.json"
        write_json(path, config)
        return [["equilibrium", "--config", str(path), "--out", str(op.dir / "out")]]

    def check(self, op: Op, run_input, work_s: list[float]) -> tuple[list[str], dict]:
        report = json.loads((op.dir / "out" / "report.json").read_text())
        atoms = len((op.dir / "out" / "measure.csv").read_text().splitlines()) - 1
        errors = []
        if report.get("converged") is not True:
            errors.append(f"report.json: converged = {report.get('converged')!r}")
        energy_err = abs(report["energy"] - SPHERICAL_ENERGY)
        if not energy_err <= ENERGY_LIMIT:
            errors.append(f"|E - 1/2| = {energy_err:.4g} > {ENERGY_LIMIT}")
        if atoms != self.resolution ** 2:
            errors.append(f"measure.csv has {atoms} atoms, expected {self.resolution ** 2}")
        return errors, {"solve_s": work_s[0], "energy_err": energy_err,
                        "iterations": report["iterations"]}


@dataclass(frozen=True)
class VerifyAnalyzeWorkload:
    """``loggas verify``, then ``loggas analyze`` on a CSV written from the seed.

    ``verify`` runs at its defaults (seed 0, default suite sizes); only the
    analyze input depends on the benchmark seed.  ``verify`` fails at a few
    percent of other seeds: the density-transport suite exceeds its 1e-10
    tolerance there (seed 534095829 gives 3.5 times the tolerance).
    """

    name: str
    chains: int
    sweeps: int
    n: int = 64
    law: str = "cauchy"

    @property
    def rows(self) -> int:
        return self.chains * self.sweeps * self.n

    def prepare(self, seed: int, workdir: Path) -> tuple[Path, np.ndarray]:
        """Write the iid samples CSV once per run; returns its path and values."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC5F]))
        draw = {"cauchy": rng.standard_cauchy, "normal": rng.standard_normal}[self.law]
        values = draw(self.rows)
        lines = ["chain,sweep,particle,re,im"]
        i = 0
        for chain in range(self.chains):
            for sweep in range(self.sweeps):
                for particle in range(self.n):
                    lines.append(f"{chain},{sweep},{particle},{float(values[i])!r},0.0")
                    i += 1
        path = workdir / "samples.csv"
        path.write_text("\n".join(lines) + "\n")
        return path, values

    def commands(self, op: Op, run_input) -> list[list[str]]:
        config = {
            "command": "analyze",
            "analyze": {"input": str(run_input[0]), "reference": "cauchy"},
        }
        path = op.dir / "analyze.json"
        write_json(path, config)
        return [
            ["verify", "--out", str(op.dir / "verify")],
            ["analyze", "--config", str(path), "--out", str(op.dir / "analyze")],
        ]

    def check(self, op: Op, run_input, work_s: list[float]) -> tuple[list[str], dict]:
        errors = []
        verdict = json.loads((op.dir / "verify" / "verify.json").read_text())
        if verdict.get("pass") is not True:
            errors.append("verify.json: pass is not true")
        max_ratio = max(s["max_deviation"] / s["tolerance"] for s in verdict["suites"].values())
        (report,) = json.loads((op.dir / "analyze" / "fit.json").read_text())["reports"]
        own = ks_statistic(run_input[1], cauchy_cdf)
        if not abs(report["statistic"] - own) <= 1e-12:
            errors.append(f"fit.json statistic {report['statistic']!r} != own KS {own!r}")
        if not report["statistic"] <= KS_LIMIT:
            errors.append(f"fit.json statistic {report['statistic']:.4g} > {KS_LIMIT}")
        if report["sample_size"] != self.rows or report["reference"] != "cauchy":
            errors.append(f"fit.json: sample_size {report['sample_size']}, "
                          f"reference {report['reference']!r}")
        return errors, {"verify_s": work_s[0], "analyze_rows_per_s": self.rows / work_s[1],
                        "verify_max_dev_over_tol": max_ratio, "ks": own}


def make(name: str, tiny: bool = False, law: str = "cauchy"):
    """The workload called ``name``; ``tiny`` shrinks it for the self-check."""
    if name == "sample-line-batch":
        size = dict(n=16, chains=2, sweeps=400, burn_in=200) if tiny else \
            dict(n=64, chains=8, sweeps=1000, burn_in=400)
        return SampleWorkload(name, "real_line", "cauchy", **size)
    if name == "sample-plane-single":
        size = dict(n=32, chains=1, sweeps=400, burn_in=200) if tiny else \
            dict(n=256, chains=1, sweeps=400, burn_in=200)
        return SampleWorkload(name, "complex_plane", "spherical", **size)
    if name == "equilibrium-plane":
        return EquilibriumWorkload(name, resolution=20 if tiny else 60)
    if name == "verify-analyze":
        size = dict(chains=1, sweeps=40) if tiny else dict(chains=8, sweeps=600)
        return VerifyAnalyzeWorkload(name, law=law, **size)
    raise KeyError(name)


NAMES = ("sample-line-batch", "sample-plane-single", "equilibrium-plane", "verify-analyze")
