"""Command-line front end: sample | equilibrium | verify | analyze.

Runs are driven by a strict JSON config (unknown keys are errors) with
flag overrides taking precedence over file values; flags are merged into
the config before it is validated, so both are checked alike.  Every run
writes a manifest echoing the validated configuration (every default
filled in), seed, and package version; parsing its config again replays
the run byte for byte.

Exit codes: 0 success, 1 verification failure or a solve that did not
converge, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

# NumPy loads these on first use: numpy.random at a command's first seed or
# draw, numpy.ma inside np.unique.  Loading them here keeps start-up cost out
# of run().
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from . import __version__
from .analysis import (
    angular_ks_distance,
    cauchy_law,
    ks_distance,
    radial_cdf_distance,
    spherical_law,
)
from .equilibrium import GridSpec, check_solvable, grid_minimize
from .errors import InadmissibleModel, LogGasError, ParseError, ValidationError
from .io import read_samples_csv, write_json, write_measure_csv, write_samples_csv
from .model import (
    BUILTIN_POTENTIALS,
    GasModel,
    PotentialSpec,
    Support,
)
from .sampler import ChainParams, chain_seed, initial_configuration, mh_chains
from .verify import run_identity_suites

COMMANDS = ("sample", "equilibrium", "verify", "analyze")

_SUPPORT_NAMES = {s.value: s for s in Support}


@dataclass(frozen=True)
class RunConfig:
    """A validated run.

    ``settings`` is the config as validated: every section given, each
    with every key present, defaults filled in and numbers as parsed.  The
    manifest writes it, and parsing it again gives it back unchanged.
    ``model``, ``chain`` and ``grid`` are the objects built from it.
    """

    settings: dict
    model: GasModel | None = None
    chain: ChainParams | None = None
    grid: GridSpec | None = None

    @property
    def command(self) -> str:
        return self.settings["command"]

    @property
    def seed(self) -> int:
        return self.settings["seed"]


def _section(section, path: str, keys: set[str]) -> dict:
    """``section`` checked to be a JSON object with no key outside ``keys``."""
    if not isinstance(section, dict):
        raise ValidationError(f"{path}: expected an object")
    for key in section:
        if key not in keys:
            raise ParseError(f"unknown key {key!r} in {path}")
    return section


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ValidationError(f"{path}: {message}")


def _number(value, path: str, integer: bool = False):
    """A finite JSON number as a float, or as an int when ``integer``.

    JSON true and false arrive as bool, a subclass of int, so they are
    rejected explicitly.
    """
    kind = "integer" if integer else "number"
    allowed = int if integer else (int, float)
    if (
        isinstance(value, bool)
        or not isinstance(value, allowed)
        or (isinstance(value, float) and not math.isfinite(value))
    ):
        raise ValidationError(f"{path}: expected a finite {kind}, got {value!r}")
    return value if integer else float(value)


def _parse_potential(section, path="model.potential") -> tuple[PotentialSpec, dict]:
    section = _section(section, path, {"name", "params", "beta_prime"})
    name = section.get("name")
    _require(isinstance(name, str), f"{path}.name", "required string")
    if name in BUILTIN_POTENTIALS:
        if "params" in section:
            raise ValidationError(f"{path}.params: not accepted for built-in {name!r}")
        pot = BUILTIN_POTENTIALS[name]()
        extra = {}
    else:
        _require("params" in section, f"{path}.params", "required for custom potentials")
        given = dict(_section(section["params"], f"{path}.params",
                              {"poly", "poly_var", "log_coeff"}))
        if "poly" in given:
            _require(isinstance(given["poly"], list), f"{path}.params.poly", "must be a list")
            given["poly"] = [_number(c, f"{path}.params.poly") for c in given["poly"]]
        if "log_coeff" in given:
            given["log_coeff"] = _number(given["log_coeff"], f"{path}.params.log_coeff")
        pot = PotentialSpec(name, **given)
        extra = {"params": {"poly": list(pot.poly), "poly_var": pot.poly_var,
                            "log_coeff": pot.log_coeff}}
    if section.get("beta_prime") is not None:
        pot = replace(pot, beta_prime=_number(section["beta_prime"], f"{path}.beta_prime"))
    return pot, {"name": name, "beta_prime": pot.beta_prime, **extra}


def _parse_model(section, path="model") -> tuple[GasModel, dict]:
    section = _section(section, path, {"support", "beta", "n", "potential"})
    support = section.get("support", "real_line")
    _require(isinstance(support, str) and support in _SUPPORT_NAMES, f"{path}.support",
             f"must be one of {sorted(_SUPPORT_NAMES)}")
    beta = _number(section.get("beta"), f"{path}.beta")
    n = _number(section.get("n"), f"{path}.n", integer=True)
    _require("potential" in section, f"{path}.potential", "required")
    potential, pot_settings = _parse_potential(section["potential"])
    settings = {"support": support, "beta": beta, "n": n, "potential": pot_settings}
    return GasModel(_SUPPORT_NAMES[support], beta, potential, n), settings


def _parse_chain(section, path="chain") -> tuple[ChainParams, dict]:
    section = _section(
        section, path, {"sweeps", "burn_in", "step_scale", "adapt", "thin", "chains"}
    )
    sweeps = _number(section.get("sweeps"), f"{path}.sweeps", integer=True)
    given = {"sweeps": sweeps, "burn_in": min(1000, sweeps // 2)}
    for key, integer in (("burn_in", True), ("step_scale", False), ("thin", True)):
        if key in section:
            given[key] = _number(section[key], f"{path}.{key}", integer=integer)
    chains = _number(section.get("chains", 1), f"{path}.chains", integer=True)
    _require(chains >= 1, f"{path}.chains", "integer >= 1")
    if "adapt" in section:
        _require(isinstance(section["adapt"], bool), f"{path}.adapt", "must be boolean")
        given["adapt"] = section["adapt"]
    params = ChainParams(**given)
    return params, {**asdict(params), "chains": chains}


def _parse_grid(section, path="grid") -> tuple[GridSpec, dict]:
    section = _section(section, path, {"window", "resolution", "tol", "max_iter"})
    window = section.get("window")
    _require(isinstance(window, list) and len(window) == 2, f"{path}.window",
             "required [lo, hi] or [[xlo, xhi], [ylo, yhi]]")
    if isinstance(window[0], list):
        _require(all(isinstance(w, list) and len(w) == 2 for w in window),
                 f"{path}.window", "needs two [lo, hi] pairs")
        window = tuple(tuple(_number(x, f"{path}.window") for x in w) for w in window)
    else:
        window = tuple(_number(x, f"{path}.window") for x in window)
    given = {"resolution": _number(section.get("resolution"), f"{path}.resolution", integer=True)}
    for key, integer in (("tol", False), ("max_iter", True)):
        if key in section:
            given[key] = _number(section[key], f"{path}.{key}", integer=integer)
    grid = GridSpec(window, **given)
    return grid, json.loads(json.dumps(asdict(grid)))  # the window's tuples as JSON lists


def _parse_analyze(section, path="analyze") -> dict:
    section = _section(section, path, {"input", "reference"})
    source = section.get("input")
    _require(isinstance(source, str), f"{path}.input", "required path string")
    reference = section.get("reference")
    _require(reference in ("cauchy", "spherical"), f"{path}.reference",
             "must be 'cauchy' or 'spherical'")
    return {"input": source, "reference": reference}


def parse_config(
    text: str, command_override: str | None = None, flags: dict | None = None
) -> RunConfig:
    """Parse and validate a JSON run configuration (strict schema).

    ``command_override`` is the CLI subcommand; it takes precedence over
    the file's command field.  ``flags`` holds the top-level values given
    on the command line (seed, out); they replace the file's values
    before validation (flags beat file values).  The range rules of the
    model, chain and grid sections are those of the objects built from
    them, whose errors name the field.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    keys = {"command", "model", "chain", "grid", "analyze", "seed", "out"}
    raw = {**_section(raw, "config", keys), **(flags or {})}
    command = command_override or raw.get("command")
    _require(command in COMMANDS, "command", f"must be one of {COMMANDS}")
    seed = _number(raw.get("seed", 0), "seed", integer=True)
    _require(0 <= seed < 2**64, "seed", "must be an unsigned 64-bit integer")
    out = raw.get("out", ".")
    _require(isinstance(out, str), "out", "must be a path string")
    settings = {"command": command, "seed": seed, "out": out}

    built = {}
    parsers = {"model": _parse_model, "chain": _parse_chain, "grid": _parse_grid}
    try:
        for key, parse in parsers.items():
            if key in raw:
                built[key], settings[key] = parse(raw[key])
        if "analyze" in raw:
            settings["analyze"] = _parse_analyze(raw["analyze"])
        needs = {"sample": ("model", "chain"), "equilibrium": ("model", "grid"),
                 "analyze": ("analyze",)}
        for key in needs.get(command, ()):
            _require(key in settings, key, f"required for the {command} command")
        if command == "equilibrium":
            check_solvable(built["model"], built["grid"])
        elif command == "sample":
            built["model"].require_weak_growth()
    except (InadmissibleModel, ValueError) as e:
        raise ValidationError(str(e)) from e
    return RunConfig(settings, **built)


def _write_manifest(config: RunConfig, out_dir: Path) -> None:
    write_json(out_dir / "manifest.json", {
        "config": config.settings,
        "seed": config.seed,
        "version": __version__,
    })


def _run_sample(config: RunConfig, out_dir: Path) -> int:
    chains = range(config.settings["chain"]["chains"])
    inits = [
        initial_configuration(config.model, np.random.default_rng([config.seed, j, 0xA11CE]))
        for j in chains
    ]
    seeds = [chain_seed(config.seed, j) for j in chains]
    samples, stats = mh_chains(config.model, inits, config.chain, seeds)
    write_samples_csv(out_dir / "samples.csv", samples, config.chain.recorded_sweeps)
    write_json(out_dir / "stats.json", {"chains": [s.to_json() for s in stats]})
    return 0


def _run_equilibrium(config: RunConfig, out_dir: Path) -> int:
    measure, report = grid_minimize(config.model, config.grid)
    write_measure_csv(out_dir / "measure.csv", measure)
    write_json(out_dir / "report.json", report.to_json())
    if not report.converged:
        print(
            f"loggas: error: not converged: gap {report.gap:.3e} > tol {config.grid.tol:g} "
            f"after {report.iterations} iterations",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_verify(config: RunConfig, out_dir: Path) -> int:
    result = run_identity_suites(config.seed)
    write_json(out_dir / "verify.json", result)
    return 0 if result["pass"] else 1


def _run_analyze(config: RunConfig, out_dir: Path) -> int:
    analyze = config.settings["analyze"]
    values = read_samples_csv(analyze["input"])["values"]
    if analyze["reference"] == "cauchy":
        reports = [ks_distance(values.real, cauchy_law().cdf, reference="cauchy")]
    else:
        reports = [
            radial_cdf_distance(values, spherical_law().cdf, reference="spherical_radial"),
            angular_ks_distance(values, reference="spherical_angular"),
        ]
    write_json(out_dir / "fit.json", {"reports": [r.to_json() for r in reports]})
    return 0


_DISPATCH = {
    "sample": _run_sample,
    "equilibrium": _run_equilibrium,
    "verify": _run_verify,
    "analyze": _run_analyze,
}


def run(config: RunConfig) -> int:
    """Execute a validated run configuration; returns the exit code."""
    try:
        out_dir = Path(config.settings["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_manifest(config, out_dir)
        return _DISPATCH[config.command](config, out_dir)
    except (LogGasError, OSError, ValueError) as e:
        print(f"loggas: error: {e}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loggas",
        description="Coulomb gas sampling, equilibrium measures, and identity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--out", type=str, default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    flags = {k: v for k, v in (("seed", args.seed), ("out", args.out)) if v is not None}
    try:
        if args.config is not None:
            text = Path(args.config).read_text(encoding="utf-8")
        else:
            text = "{}"
        config = parse_config(text, command_override=args.command, flags=flags)
    except (ParseError, ValidationError, OSError) as e:
        print(f"loggas: error: {e}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as e:
        print(f"loggas: error: {args.config}: not UTF-8 text ({e.reason})", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
