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
import ctypes
import json
import math
import os
import signal
import sys
import tempfile
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

# Loaded here, not at a command's first seed or draw, to keep start-up out of run().
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
from .io import read_samples_csv, write_json, write_measure_csv, write_samples_csv
from .model import (
    BUILTIN_POTENTIALS,
    GasModel,
    PotentialSpec,
    Support,
)
from .sampler import ChainParams, chain_seed, initial_configuration, mh_chains, start_log_densities
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
        raise ValueError(f"{path}: expected an object")
    for key in section:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {path}")
    return section


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ValueError(f"{path}: {message}")


# json.loads' value for an integer literal past int()'s digit limit
# (sys.get_int_max_str_digits()): no key accepts it.
_TOO_LONG = object()


def _integer(text: str):
    try:  # json passes integer literals only, so a ValueError is the digit limit
        return int(text)
    except ValueError:
        return _TOO_LONG


def _number(value, path: str, integer: bool = False, bound: int | None = 2**63):
    """A finite JSON number as a float, or as an int below ``bound`` when
    ``integer``.

    JSON true and false arrive as bool, a subclass of int, so they are
    rejected explicitly.  A count must fit NumPy's signed 64-bit sizes, and
    an integer in a number key must fit a float.
    """
    _require(value is not _TOO_LONG, path, "an integer with too many digits to convert")
    kind = "integer" if integer else "number"
    allowed = int if integer else (int, float)
    if (
        isinstance(value, bool)
        or not isinstance(value, allowed)
        or (isinstance(value, float) and not math.isfinite(value))
    ):
        raise ValueError(f"{path}: expected a finite {kind}, got {value!r}")
    if not integer:
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{path}: expected a finite number, got an integer past "
                             "the float range") from None
    if bound is not None:
        _require(value < bound, path, f"must be below 2**{bound.bit_length() - 1}")
    return value


def _object(pairs: list) -> dict:
    """A JSON object as a dict; a key given twice is an error."""
    obj = {}
    for key, value in pairs:
        _require(key not in obj, repr(key), "given twice in one object")
        obj[key] = value
    return obj


def _parse_potential(section, path="model.potential") -> tuple[PotentialSpec, dict]:
    section = _section(section, path, {"name", "params"})
    name = section.get("name")
    _require(isinstance(name, str), f"{path}.name", "required string")
    if name in BUILTIN_POTENTIALS:
        if "params" in section:
            raise ValueError(f"{path}.params: not accepted for built-in {name!r}")
        return BUILTIN_POTENTIALS[name](), {"name": name}
    _require("params" in section, f"{path}.params", "required for custom potentials")
    given = dict(_section(section["params"], f"{path}.params", {"poly", "poly_var", "log_coeff"}))
    if "poly" in given:
        _require(isinstance(given["poly"], list), f"{path}.params.poly", "must be a list")
        given["poly"] = [_number(c, f"{path}.params.poly") for c in given["poly"]]
    if "log_coeff" in given:
        given["log_coeff"] = _number(given["log_coeff"], f"{path}.params.log_coeff")
    pot = PotentialSpec(name, **given)
    return pot, {"name": name, "params": {"poly": list(pot.poly), "poly_var": pot.poly_var,
                                          "log_coeff": pot.log_coeff}}


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
    section = _section(section, path, {"sweeps", "burn_in", "thin", "chains"})
    sweeps = _number(section.get("sweeps"), f"{path}.sweeps", integer=True)
    given = {"sweeps": sweeps, "burn_in": min(1000, sweeps // 2)}
    for key in ("burn_in", "thin"):
        if key in section:
            given[key] = _number(section[key], f"{path}.{key}", integer=True)
    chains = _number(section.get("chains", 1), f"{path}.chains", integer=True)
    _require(chains >= 1, f"{path}.chains", "integer >= 1")
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
        raw = json.loads(text, object_pairs_hook=_object, parse_int=_integer)
    except json.JSONDecodeError as e:
        raise ValueError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    keys = {"command", "model", "chain", "grid", "analyze", "seed", "out"}
    raw = {**_section(raw, "config", keys), **(flags or {})}
    command = command_override or raw.get("command")
    _require(command in COMMANDS, "command", f"must be one of {COMMANDS}")
    seed = _number(raw.get("seed", 0), "seed", integer=True, bound=None)
    _require(0 <= seed < 2**64, "seed", "must be an unsigned 64-bit integer")
    out = raw.get("out", ".")
    _require(isinstance(out, str), "out", "must be a path string")
    settings = {"command": command, "seed": seed, "out": out}

    built = {}
    parsers = {"model": _parse_model, "chain": _parse_chain, "grid": _parse_grid}
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
        # The samples are one complex array; NumPy sizes arrays in signed 64-bit bytes.
        size = settings["chain"]["chains"] * len(built["chain"].recorded_sweeps) * 16
        _require(size * built["model"].n < 2**63, "chain.sweeps",
                 "chains x recorded sweeps x n x 16 bytes is too large (2**63 or more)")
    return RunConfig(settings, **built)


def _run_group(config: RunConfig, inits, seeds, lo: int, hi: int, fd: int) -> list[dict]:
    """Run chains lo..hi-1 of a ``sample`` run, append their rows to the open
    file ``fd`` and return their stats as JSON."""
    samples, stats = mh_chains(config.model, inits[lo:hi], config.chain, seeds[lo:hi])
    write_samples_csv(fd, samples, config.chain.recorded_sweeps, lo)
    return [s.to_json() for s in stats]


PR_SET_PDEATHSIG = 1  # <linux/prctl.h>


class _Worker:
    """A forked process that runs chains lo..hi-1 of a ``sample`` run.

    It writes their rows to ``part`` and its reply to ``reply``, two
    unnamed files in the output directory, and leaves with ``os._exit``.
    The reply is their stats as JSON, or its error's message as a JSON
    string.  The kernel SIGKILLs the worker when its parent dies
    (``PR_SET_PDEATHSIG``), so it never outlives the run.
    """

    def __init__(self, config: RunConfig, out_dir: Path, lo: int, hi: int, inits, seeds):
        self.chains = f"{lo}..{hi - 1}"
        self.pid = None
        self.part = tempfile.TemporaryFile(dir=out_dir)
        self.reply = tempfile.TemporaryFile("w+", dir=out_dir)
        prctl, parent = ctypes.CDLL(None).prctl, os.getpid()  # no dlopen in the child
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns that forking a process with threads may
                # deadlock the child.  The threads are OpenBLAS's pool, which
                # OpenBLAS shuts down at fork (pthread_atfork), and a worker
                # only runs NumPy and writes files.
                warnings.simplefilter("ignore", DeprecationWarning)
                self.pid = os.fork()
            if self.pid == 0:
                self._work(config, lo, hi, inits, seeds, prctl, parent)
        except BaseException:
            self.stop()
            raise

    def _work(self, config: RunConfig, lo: int, hi: int, inits, seeds, prctl,
              parent: int) -> None:
        """The worker's body, in the child.  It never returns, so nothing
        reaches the frames the child shares with its parent; Ctrl-C is left
        to the parent, which kills its workers when it stops."""
        status = 1
        try:
            # A parent that died before this call would send no signal, so
            # the worker also checks that it is still its parent's child.
            if (prctl(PR_SET_PDEATHSIG, ctypes.c_ulong(signal.SIGKILL)) != 0
                    or os.getppid() != parent):
                return  # exit code 1, from the finally clause
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            try:
                reply = _run_group(config, inits, seeds, lo, hi, self.part.fileno())
            except (OSError, ValueError) as e:
                reply = str(e)
            json.dump(reply, self.reply)
            self.reply.flush()
            status = 0
        except BaseException:
            sys.excepthook(*sys.exc_info())  # a bug's traceback, as a serial run prints it
        finally:
            sys.stderr.flush()
            os._exit(status)

    def result(self) -> list[dict]:
        """Wait for the worker; returns its chains' stats as JSON, or raises
        its error."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if status != 0:
            code = os.waitstatus_to_exitcode(status)
            raise ChildProcessError(
                f"the worker for chains {self.chains} failed (exit code {code})"
            )
        self.reply.seek(0)
        reply = json.load(self.reply)
        if isinstance(reply, str):
            raise ValueError(reply)
        return reply

    def stop(self) -> None:
        """Kill and reap the worker unless it has been reaped; close its files."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        self.reply.close()
        self.part.close()


def _append(out_fd: int, part_fd: int) -> None:
    """Copy the whole file ``part_fd`` to ``out_fd`` where it stands."""
    offset, size = 0, os.fstat(part_fd).st_size
    while offset < size:
        offset += os.sendfile(out_fd, part_fd, offset, size - offset)


def _run_sample(config: RunConfig, out_dir: Path) -> int:
    """Chains 0..C-1 in W = min(C, CPUs) contiguous groups: this process runs
    the first and forks a ``_Worker`` for each other.  Chain j's samples and
    stats do not depend on the chains beside it, so every W gives the same
    bytes; W = 1 forks nothing."""
    chains = config.settings["chain"]["chains"]
    inits = [
        initial_configuration(config.model, np.random.default_rng([config.seed, j, 0xA11CE]))
        for j in range(chains)
    ]
    seeds = [chain_seed(config.seed, j) for j in range(chains)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    groups = min(chains, cpus)
    bounds = [chains * g // groups for g in range(groups + 1)]
    if groups > 1:
        # A start no chain can follow fails before any fork, named as a serial
        # run names it (a worker's mh_chains numbers its chains from 0).
        start_log_densities(config.model, inits)
    workers = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            workers.append(_Worker(config, out_dir, lo, hi, inits, seeds))
        path = out_dir / "samples.csv"
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            chain_stats = _run_group(config, inits, seeds, 0, bounds[1], fd)
            for worker in workers:
                chain_stats += worker.result()
                _append(fd, worker.part.fileno())
        except BaseException:
            path.unlink()
            raise
        finally:
            os.close(fd)
    finally:
        for worker in workers:
            worker.stop()
    write_json(out_dir / "stats.json", {"chains": chain_stats})
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
        write_json(out_dir / "manifest.json",
                   {"config": config.settings, "seed": config.seed, "version": __version__})
        return _DISPATCH[config.command](config, out_dir)
    except (OSError, ValueError) as e:
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
    except UnicodeDecodeError as e:  # a ValueError, so it comes first
        print(f"loggas: error: {args.config}: not UTF-8 text ({e.reason})", file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print(f"loggas: error: {e}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
