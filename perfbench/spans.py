"""Per-layer metrics of one traced op, from the spans its children recorded.

A span is [name, parent index, start, end, attributes]; its layer is the
part of the name before the dot.  Self time is a span's duration minus the
durations of its child spans.  The CLI runs one command at a time on one
thread, so every span lies on the blocking path, and an op's wall time
(spawn to exit of each child) splits exactly into:

  trace.python_s     interpreter start-up before the launcher's first line,
                     and exit after ``main`` returned (with the span dump)
  <layer>.self_s     self time of the layer's spans (``cli`` includes
                     ``import loggas.cli``)
  trace.remainder_s  time no span covers: the launcher's own glue

A layer that the workload never calls reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

LAYERS = ("cli", "sampler", "equilibrium", "verify", "analysis", "io", "energy", "geometry",
          "model")

# per-layer metric -> span whose total duration it is
DURATIONS = {
    "sampler.mh_chain_s": "sampler.mh_chain",
    "energy.log_density_s": "energy.log_density",
    "energy.log_density_sphere_s": "energy.log_density_sphere",
    "energy.measure_energy_s": "energy.measure_energy",
    "equilibrium.project_s": "equilibrium.project_to_simplex",
    "geometry.project_array_s": "geometry.project_array",
    "verify.metric_s": "verify.metric_identity_deviation",
    "verify.pole_s": "verify.pole_identity_deviation",
    "verify.kernel_transport_s": "verify.kernel_transport_deviation",
    "verify.density_transport_s": "verify.density_transport_deviation",
    "verify.energy_transport_s": "verify.energy_transport_deviation",
    "analysis.ks_s": "analysis.ks_distance",
    "io.write_samples_csv_s": "io.write_samples_csv",
    "io.read_samples_csv_s": "io.read_samples_csv",
    "io.write_measure_csv_s": "io.write_measure_csv",
    "model.admissibility_check_s": "model.admissibility_check",
}

# per-layer metric -> span whose calls it counts
CALLS = {
    "energy.log_density_calls": "energy.log_density",
    "equilibrium.project_calls": "equilibrium.project_to_simplex",
}

# per-layer metric -> (span, attribute) summed over the span's calls
ATTRIBUTE_SUMS = {
    "sampler.moves": ("sampler.mh_chain", "moves"),
    "geometry.project_array_points": ("geometry.project_array", "points"),
    "analysis.ks_samples": ("analysis.ks_distance", "samples"),
    "io.read_rows": ("io.read_samples_csv", "rows"),
}

# metrics of a run taken as the maximum over its traced ops, not the median
RUN_MAXIMUM = {"verify.max_dev_over_tol"}


def self_times(spans) -> list[float]:
    covered = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, _, start, end, _) in enumerate(spans)]


def _child_metrics(child: dict, m: defaultdict) -> None:
    stamps, spans = child["stamps"], child["spans"]
    wall = child["exit"] - child["spawn"]
    python = (stamps["start"] - child["spawn"]) + (child["exit"] - stamps["end"])
    imported = stamps["import_end"] - stamps["import_start"]
    m["trace.wall_s"] += wall
    m["trace.python_s"] += python
    m["cli.import_s"] += imported
    m["cli.self_s"] += imported
    own = self_times(spans)
    top_level = 0.0
    for (name, parent, start, end, _), t in zip(spans, own):
        m[name.split(".")[0] + ".self_s"] += t
        if parent < 0:
            top_level += end - start
    m["trace.remainder_s"] += wall - python - imported - top_level

    by_name = defaultdict(list)
    for span in spans:
        by_name[span[0]].append(span)
    (main,) = by_name["cli.main"]
    m["cli.parse_s"] += stamps["run"] - main[2]
    for metric, name in DURATIONS.items():
        m[metric] += sum(end - start for _, _, start, end, _ in by_name[name])
    for metric, name in CALLS.items():
        m[metric] += len(by_name[name])
    for metric, (name, key) in ATTRIBUTE_SUMS.items():
        m[metric] += sum(span[4][key] for span in by_name[name])
    m["io.write_bytes"] += sum(span[4]["bytes"] for name in
                               ("io.write_samples_csv", "io.write_measure_csv", "io.write_json")
                               for span in by_name[name])

    chains = by_name["sampler.mh_chain"]
    if chains:
        own_by_id = {id(s): t for s, t in zip(spans, own)}
        m["sampler.self_us_per_move"] += 1e6 * sum(own_by_id[id(s)] for s in chains) / sum(
            s[4]["moves"] for s in chains)
        m["sampler.acceptance_rate"] += sum(
            s[4]["acceptance_rate"] * s[4]["recorded_moves"] for s in chains
        ) / sum(s[4]["recorded_moves"] for s in chains)
        busy = sum(end - start for _, _, start, end, _ in chains)
        m["sampler.chain_overlap"] += busy / (max(s[3] for s in chains) -
                                              min(s[2] for s in chains))
    for _, _, start, end, attrs in by_name["equilibrium.grid_minimize"]:
        iters = attrs["iteration_stamps"]
        m["equilibrium.setup_s"] += iters[0] - start
        m["equilibrium.finalize_s"] += end - iters[-1]
        m["equilibrium.iterations"] += attrs["iterations"]
        m["equilibrium.final_gap"] += attrs["gap"]
        if len(iters) > 1:
            m["equilibrium.iter_ms"] += 1e3 * statistics.median(
                b - a for a, b in zip(iters, iters[1:]))
    for span in by_name["verify.run_identity_suites"]:
        m["verify.max_dev_over_tol"] = max(m["verify.max_dev_over_tol"],
                                           span[4]["max_dev_over_tol"])


def op_metrics(children: list[dict], names) -> dict[str, float]:
    """Every per-layer metric in ``names`` for one traced op (its children summed)."""
    m = defaultdict(float)
    for child in children:
        _child_metrics(child, m)
    m["trace.remainder_frac"] = m["trace.remainder_s"] / m["trace.wall_s"]
    unknown = set(m) - set(names)
    if unknown:
        raise KeyError(f"metrics missing from metrics.json: {sorted(unknown)}")
    return {name: float(m[name]) for name in names}


def run_metrics(ops: list[dict[str, float]], names) -> dict[str, float]:
    """Median over a run's traced ops (maximum for RUN_MAXIMUM metrics)."""
    return {
        name: (max if name in RUN_MAXIMUM else statistics.median)(op[name] for op in ops)
        for name in names
    }
