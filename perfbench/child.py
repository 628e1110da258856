"""Run one ``loggas`` command in this fresh process, as the console script would.

usage: python child.py STAMPS_JSON TRACE -- <loggas arguments...>

The command runs through ``loggas.cli.main`` exactly as ``loggas <args>``
does.  Around it the launcher records CLOCK_MONOTONIC stamps, which are
comparable with the parent's stamps:

  start   first line of this file (interpreter start-up is over)
  import  before and after ``import loggas.cli``
  run     entry of ``loggas.cli.run``: parsing is done and the first call
          into a layer (the manifest write) follows
  end     ``loggas.cli.main`` returned

With TRACE = 1 every public layer function listed in LAYER_FUNCTIONS is
wrapped at each module binding that names it (a module that did
``from .x import f`` holds its own binding), and each call records a span
(name, parent, start, end, attributes).  Spans stay in memory and are
written with the stamps when the command ends.
"""

import time

START = time.monotonic()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

LAYER_FUNCTIONS = {
    "cli": ("main", "run", "parse_config"),
    "sampler": ("mh_chain", "chain_seed"),
    "model": ("admissibility_check", "validate_configuration"),
    "energy": ("log_density", "log_density_sphere", "measure_energy"),
    "geometry": ("project_array", "pushforward", "compactified_potential"),
    "equilibrium": ("grid_minimize", "project_to_simplex", "captured_mass"),
    "verify": (
        "run_identity_suites",
        "metric_identity_deviation",
        "pole_identity_deviation",
        "kernel_transport_deviation",
        "density_transport_deviation",
        "energy_transport_deviation",
    ),
    "analysis": ("ks_distance", "radial_cdf_distance", "angular_ks_distance"),
    "io": ("write_samples_csv", "read_samples_csv", "write_measure_csv", "write_json"),
}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _chain_attrs(args, kwargs, result):
    model, params = args[0], args[2]
    stats = result[1]
    return {
        "moves": model.n * params.sweeps,
        "recorded_moves": model.n * (params.sweeps - params.burn_in),
        "acceptance_rate": stats.acceptance_rate,
    }


def _identity_attrs(args, kwargs, result):
    return {"max_dev_over_tol": max(
        s["max_deviation"] / s["tolerance"] for s in result["suites"].values()
    )}


def _grid_attrs(args, kwargs, result):
    report = result[1]
    return {"iterations": report.iterations, "gap": report.gap, "energy": report.energy}


ATTRIBUTES = {
    "sampler.mh_chain": _chain_attrs,
    "verify.run_identity_suites": _identity_attrs,
    "equilibrium.grid_minimize": _grid_attrs,
    "geometry.project_array": lambda a, k, r: {"points": r.size // 3},
    "analysis.ks_distance": lambda a, k, r: {"samples": r.sample_size},
    "io.read_samples_csv": lambda a, k, r: {"rows": len(r["values"])},
    "io.write_samples_csv": _file_bytes,
    "io.write_measure_csv": _file_bytes,
    "io.write_json": _file_bytes,
}


class Tracer:
    """Span recorder for one single-threaded command."""

    def __init__(self):
        self.spans = []  # [name, parent index, start, end, attributes]
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, attributes = self.spans, self._stack, ATTRIBUTES.get(name)
        clock = time.monotonic

        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), None, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if attributes is not None:
                record[4] = attributes(args, kwargs, result)
            return result

        if name == "equilibrium.grid_minimize":
            return self._with_iteration_stamps(traced)
        return traced

    def _with_iteration_stamps(self, traced):
        """Pass grid_minimize an on_iterate callback that stamps each iteration."""
        spans = self.spans

        def minimize(*args, on_iterate=None, **kwargs):
            stamps = []
            index = len(spans)

            def stamp(k, energy, gap):
                stamps.append(time.monotonic())
                if on_iterate is not None:
                    on_iterate(k, energy, gap)

            try:
                return traced(*args, on_iterate=stamp, **kwargs)
            finally:
                attrs = spans[index][4] or {}
                attrs["iteration_stamps"] = stamps
                spans[index][4] = attrs

        return minimize

    def install(self, package):
        """Wrap every binding of each layer function in every loggas module."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYER_FUNCTIONS
        ]
        wrappers = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"{package.__name__}.{layer}"]
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = self.wrap(f"{layer}.{fname}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)


def main(argv):
    stamps_path, trace = argv[0], argv[1] == "1"
    command = argv[argv.index("--") + 1:]
    stamps = {"start": START, "import_start": time.monotonic()}
    import loggas
    import loggas.cli as cli

    stamps["import_end"] = time.monotonic()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(loggas)
    inner_run = cli.run

    def run(config):
        stamps["run"] = time.monotonic()
        return inner_run(config)

    cli.run = run
    rc = cli.main(command)
    stamps["end"] = time.monotonic()
    with open(stamps_path, "w") as f:
        json.dump({
            "rc": rc,
            "loggas_file": loggas.__file__,
            "stamps": stamps,
            "spans": tracer.spans if tracer else [],
        }, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
