"""Command-line front end: sample | equilibrium | verify | analyze.

Runs are driven by a strict JSON config (unknown keys are errors) with
flag overrides taking precedence over file values; flags are merged into
the config before it is validated, so both are checked alike.  Every run
writes a manifest echoing the resolved configuration, seed, and package
version, sufficient to reproduce the outputs byte for byte.

Exit codes: 0 success, 1 verification failure or a solve that did not
converge, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import angular_ks_distance, ks_distance, radial_cdf_distance
from .equilibrium import GridSpec, cauchy_law, grid_minimize, spherical_law
from .errors import LogGasError, ParseError, ValidationError
from .io import read_samples_csv, write_json, write_measure_csv, write_samples_csv
from .model import (
    BUILTIN_POTENTIALS,
    Configuration,
    GasModel,
    PotentialSpec,
    Support,
    custom_potential,
)
from .sampler import ChainParams, chain_seed, mh_chain
from .verify import run_identity_suites

COMMANDS = ("sample", "equilibrium", "verify", "analyze")

_SUPPORT_NAMES = {s.value: s for s in Support}


@dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int = 0
    out: str = "."
    model: GasModel | None = None
    chain: ChainParams | None = None
    n_chains: int = 1
    grid: GridSpec | None = None
    tol: float = 1e-4
    max_iter: int = 20000
    analyze_input: str | None = None
    analyze_reference: str | None = None

    def resolved(self) -> dict:
        """The fully-resolved config echoed into the manifest."""
        out: dict = {
            "command": self.command,
            "seed": self.seed,
            "out": self.out,
        }
        if self.model is not None:
            pot = self.model.potential
            pot_dict = {
                "name": pot.name,
                "beta_prime": pot.beta_prime,
                "v_infinity": _json_float(pot.v_infinity),
            }
            if pot.name not in BUILTIN_POTENTIALS:
                pot_dict["params"] = {
                    "poly": list(pot.poly or ()),
                    "poly_var": pot.poly_var,
                    "log_coeff": pot.log_coeff,
                }
            out["model"] = {
                "support": self.model.support.value,
                "beta": self.model.beta,
                "n": self.model.n,
                "potential": pot_dict,
            }
        if self.chain is not None:
            out["chain"] = {
                "sweeps": self.chain.sweeps,
                "burn_in": self.chain.burn_in,
                "step_scale": self.chain.step_scale,
                "adapt": self.chain.adapt,
                "thin": self.chain.thin,
                "chains": self.n_chains,
            }
        if self.grid is not None:
            window = self.grid.window
            out["grid"] = {
                "window": [list(w) for w in window] if self.grid.is_planar else list(window),
                "resolution": self.grid.resolution,
                "tol": self.tol,
                "max_iter": self.max_iter,
            }
        if self.analyze_input is not None:
            out["analyze"] = {
                "input": self.analyze_input,
                "reference": self.analyze_reference,
            }
        return out


def _json_float(v):
    if v is None:
        return None
    if np.isinf(v):
        return "inf" if v > 0 else "-inf"
    return float(v)


def _reject_unknown(section: dict, allowed: set[str], where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ParseError(f"unknown key {key!r} in {where}")


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


def _parse_potential(section, path="model.potential") -> PotentialSpec:
    if not isinstance(section, dict):
        raise ValidationError(f"{path}: expected an object")
    _reject_unknown(section, {"name", "params", "beta_prime", "v_infinity"}, path)
    name = section.get("name")
    _require(isinstance(name, str), f"{path}.name", "required string")
    if name in BUILTIN_POTENTIALS:
        if "params" in section:
            raise ValidationError(f"{path}.params: not accepted for built-in {name!r}")
        pot = BUILTIN_POTENTIALS[name]()
    else:
        params = section.get("params")
        _require(isinstance(params, dict), f"{path}.params", "required for custom potentials")
        _reject_unknown(params, {"poly", "poly_var", "log_coeff"}, f"{path}.params")
        poly = params.get("poly", [])
        _require(isinstance(poly, list), f"{path}.params.poly", "must be a list")
        poly = [_number(c, f"{path}.params.poly") for c in poly]
        poly_var = params.get("poly_var", "r2")
        log_coeff = _number(params.get("log_coeff", 0.0), f"{path}.params.log_coeff")
        _require(poly_var in ("x", "r2"), f"{path}.params.poly_var", "must be 'x' or 'r2'")
        pot = custom_potential(name, poly, poly_var, log_coeff)
    overrides = {}
    if "beta_prime" in section and section["beta_prime"] is not None:
        bp = _number(section["beta_prime"], f"{path}.beta_prime")
        _require(bp > 1.0, f"{path}.beta_prime", "must exceed 1")
        overrides["beta_prime"] = bp
    if "v_infinity" in section and section["v_infinity"] is not None:
        overrides["v_infinity"] = float(section["v_infinity"])
    return replace(pot, **overrides) if overrides else pot


def _parse_model(section, path="model") -> GasModel:
    if not isinstance(section, dict):
        raise ValidationError(f"{path}: expected an object")
    _reject_unknown(section, {"support", "beta", "n", "potential"}, path)
    support_name = section.get("support", "real_line")
    _require(support_name in _SUPPORT_NAMES, f"{path}.support",
             f"must be one of {sorted(_SUPPORT_NAMES)}")
    beta = _number(section.get("beta"), f"{path}.beta")
    _require(beta > 0, f"{path}.beta", "must be positive")
    n = _number(section.get("n"), f"{path}.n", integer=True)
    _require(n >= 1, f"{path}.n", "required integer >= 1")
    _require("potential" in section, f"{path}.potential", "required")
    potential = _parse_potential(section["potential"])
    return GasModel(_SUPPORT_NAMES[support_name], beta, potential, n)


def _parse_chain(section, path="chain") -> tuple[ChainParams, int]:
    _reject_unknown(
        section, {"sweeps", "burn_in", "step_scale", "adapt", "thin", "chains"}, path
    )
    sweeps = _number(section.get("sweeps"), f"{path}.sweeps", integer=True)
    _require(sweeps >= 2, f"{path}.sweeps", "required integer >= 2")
    burn_in = _number(
        section.get("burn_in", min(1000, sweeps // 2)), f"{path}.burn_in", integer=True
    )
    _require(0 <= burn_in < sweeps, f"{path}.burn_in",
             "must satisfy 0 <= burn_in < sweeps")
    step_scale = _number(section.get("step_scale", 1.0), f"{path}.step_scale")
    _require(step_scale > 0, f"{path}.step_scale", "must be positive")
    thin = _number(section.get("thin", 1), f"{path}.thin", integer=True)
    _require(thin >= 1, f"{path}.thin", "integer >= 1")
    chains = _number(section.get("chains", 1), f"{path}.chains", integer=True)
    _require(chains >= 1, f"{path}.chains", "integer >= 1")
    adapt = section.get("adapt", True)
    _require(isinstance(adapt, bool), f"{path}.adapt", "must be boolean")
    params = ChainParams(
        sweeps=sweeps, burn_in=burn_in, step_scale=step_scale, adapt=adapt, thin=thin
    )
    return params, chains


def _parse_grid(section, path="grid") -> tuple[GridSpec, float, int]:
    _reject_unknown(section, {"window", "resolution", "tol", "max_iter"}, path)
    window = section.get("window")
    _require(isinstance(window, list) and len(window) == 2, f"{path}.window",
             "required [lo, hi] or [[xlo, xhi], [ylo, yhi]]")
    if isinstance(window[0], list):
        _require(all(isinstance(w, list) and len(w) == 2 for w in window),
                 f"{path}.window", "needs two [lo, hi] pairs")
        win = tuple(tuple(_number(x, f"{path}.window") for x in w) for w in window)
        for lo, hi in win:
            _require(lo < hi, f"{path}.window", "needs lo < hi")
    else:
        win = tuple(_number(x, f"{path}.window") for x in window)
        _require(win[0] < win[1], f"{path}.window", "needs lo < hi")
    resolution = _number(section.get("resolution"), f"{path}.resolution", integer=True)
    _require(resolution >= 16, f"{path}.resolution", "required integer >= 16")
    tol = _number(section.get("tol", 1e-4), f"{path}.tol")
    _require(tol > 0, f"{path}.tol", "must be positive")
    max_iter = _number(section.get("max_iter", 20000), f"{path}.max_iter", integer=True)
    _require(max_iter >= 1, f"{path}.max_iter", "integer >= 1")
    return GridSpec(win, resolution), tol, max_iter


def parse_config(
    text: str, command_override: str | None = None, flags: dict | None = None
) -> RunConfig:
    """Parse and validate a JSON run configuration (strict schema).

    ``command_override`` is the CLI subcommand; it takes precedence over
    the file's command field.  ``flags`` holds the top-level values given
    on the command line (seed, out); they replace the file's values
    before validation (flags beat file values).
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(raw, dict):
        raise ParseError("config must be a JSON object")
    raw = {**raw, **(flags or {})}
    _reject_unknown(
        raw,
        {"command", "model", "chain", "grid", "analyze", "seed", "out"},
        "config",
    )
    command = command_override or raw.get("command")
    _require(command in COMMANDS, "command", f"must be one of {COMMANDS}")

    seed = _number(raw.get("seed", 0), "seed", integer=True)
    _require(0 <= seed < 2**64, "seed", "must be an unsigned 64-bit integer")
    out = raw.get("out", ".")
    _require(isinstance(out, str), "out", "must be a path string")

    model = _parse_model(raw["model"]) if "model" in raw else None
    chain, n_chains = (None, 1)
    if "chain" in raw:
        chain, n_chains = _parse_chain(raw["chain"])
    grid, tol, max_iter = (None, 1e-4, 20000)
    if "grid" in raw:
        grid, tol, max_iter = _parse_grid(raw["grid"])
    analyze_input, analyze_reference = None, None
    if "analyze" in raw:
        section = raw["analyze"]
        _reject_unknown(section, {"input", "reference"}, "analyze")
        analyze_input = section.get("input")
        _require(isinstance(analyze_input, str), "analyze.input", "required path string")
        analyze_reference = section.get("reference")
        _require(analyze_reference in ("cauchy", "spherical"), "analyze.reference",
                 "must be 'cauchy' or 'spherical'")

    if command == "sample":
        _require(model is not None, "model", "required for the sample command")
        _require(chain is not None, "chain", "required for the sample command")
    if command == "equilibrium":
        _require(model is not None, "model", "required for the equilibrium command")
        _require(grid is not None, "grid", "required for the equilibrium command")
    if command == "analyze":
        _require(analyze_input is not None, "analyze", "required for the analyze command")

    return RunConfig(
        command=command,
        seed=seed,
        out=out,
        model=model,
        chain=chain,
        n_chains=n_chains,
        grid=grid,
        tol=tol,
        max_iter=max_iter,
        analyze_input=analyze_input,
        analyze_reference=analyze_reference,
    )


def _initial_configuration(model: GasModel, rng: np.random.Generator) -> Configuration:
    n = model.n
    for _ in range(100):
        if model.support is Support.COMPLEX_PLANE:
            pts = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        elif model.support is Support.UNIT_CIRCLE:
            pts = np.exp(2j * np.pi * rng.random(n))
        elif model.support is Support.UNIT_SEGMENT:
            pts = rng.random(n).astype(complex)
        elif model.support is Support.HALF_LINE:
            pts = np.abs(rng.standard_normal(n)).astype(complex)
        else:
            pts = rng.standard_normal(n).astype(complex)
        if len(np.unique(pts)) == n:
            return Configuration(pts)
    raise RuntimeError("could not draw a duplicate-free initial configuration")


def _write_manifest(config: RunConfig, out_dir: Path) -> None:
    write_json(out_dir / "manifest.json", {
        "config": config.resolved(),
        "seed": config.seed,
        "version": __version__,
    })


def _run_sample(config: RunConfig, out_dir: Path) -> int:
    records = []
    stats_list = []
    for j in range(config.n_chains):
        params = replace(config.chain, seed=chain_seed(config.seed, j))
        init_rng = np.random.default_rng(np.random.SeedSequence([config.seed, j, 0xA11CE]))
        init = _initial_configuration(config.model, init_rng)
        samples, stats = mh_chain(config.model, init, params)
        for k, cfg in enumerate(samples):
            records.append((j, params.burn_in + k * params.thin, cfg.points))
        stats_list.append(stats.to_json())
    write_samples_csv(out_dir / "samples.csv", records)
    write_json(out_dir / "stats.json", {"chains": stats_list})
    return 0


def _run_equilibrium(config: RunConfig, out_dir: Path) -> int:
    measure, report = grid_minimize(
        config.model, config.grid, tol=config.tol, max_iter=config.max_iter
    )
    write_measure_csv(out_dir / "measure.csv", measure)
    write_json(out_dir / "report.json", report.to_json())
    if not report.converged:
        print(
            f"loggas: error: not converged: gap {report.gap:.3e} > tol {config.tol:g} "
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
    data = read_samples_csv(config.analyze_input)
    values = data["values"]
    if config.analyze_reference == "cauchy":
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
        out_dir = Path(config.out)
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
            text = Path(args.config).read_text()
        else:
            text = "{}"
        config = parse_config(text, command_override=args.command, flags=flags)
    except (ParseError, ValidationError, OSError) as e:
        print(f"loggas: error: {e}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
