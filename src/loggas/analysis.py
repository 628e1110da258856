"""Goodness-of-fit distances and rate-function gaps.

Weak convergence of the empirical measures is checked with the
Kolmogorov-Smirnov statistic against the closed-form CDFs (radial and
angular reductions on the plane, exploiting rotational invariance).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .energy import measure_energy
from .errors import EmptySample, NoReference
from .model import DiscreteMeasure, GasModel
from .equilibrium import reference_energy


@dataclass(frozen=True)
class FitReport:
    statistic: float
    sample_size: int
    reference: str

    def to_json(self) -> dict:
        return asdict(self)


def ks_distance(samples, cdf, reference: str = "custom") -> FitReport:
    """One-sample Kolmogorov-Smirnov statistic against a CDF.

    sup over the sorted sample of max(|i/n - F(x_(i))|, |(i-1)/n - F(x_(i))|).
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    if n == 0:
        raise EmptySample("ks_distance needs at least one sample")
    f = np.asarray(cdf(xs), dtype=float)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    stat = float(np.max(np.maximum(np.abs(hi - f), np.abs(lo - f))))
    return FitReport(stat, n, reference)


def radial_cdf_distance(samples, radial_cdf, reference: str = "custom") -> FitReport:
    """KS statistic of the sample moduli against a radial CDF."""
    zs = np.asarray(samples, dtype=complex)
    return ks_distance(np.abs(zs), radial_cdf, reference=reference)


def angular_ks_distance(samples, reference: str = "uniform_angle") -> FitReport:
    """KS statistic of sample angles in [0, 2pi) against the uniform law."""
    zs = np.asarray(samples, dtype=complex)
    angles = np.mod(np.angle(zs), 2.0 * np.pi)
    return ks_distance(angles, lambda a: a / (2.0 * np.pi), reference=reference)


def rate_gap(
    mu: DiscreteMeasure, model: GasModel, reference: float | None = None
) -> float:
    """Energy of mu above the minimal energy of the model.

    The reference is the closed-form minimal energy for the two built-in
    beta = 2 models, or a caller-supplied value (e.g. from a converged
    grid minimizer).  The off-diagonal surrogate can make the gap
    slightly negative for atomic measures.
    """
    if reference is None:
        reference = reference_energy(model)
        if reference is None:
            raise NoReference(
                "model has no closed-form reference energy; pass one explicitly"
            )
    return float(measure_energy(mu, model) - reference)
