"""Coulomb gas (log-gas) simulation under weakly confining potentials.

The package covers the desk-scale study of a gas of n particles on the
line or the plane with pairwise logarithmic repulsion at inverse
temperature beta and external potential V:

* model        gas models, potentials, checks of n-point arrays, discrete
               measures, and log(1+|x|^2) without overflow at any finite |x|
* geometry     projection onto the Riemann sphere and its exact identities
* energy       discrete energies, Gibbs log-densities
* equilibrium  grid minimization, mode descent, optimality residuals
* sampler      Metropolis chains and exact beta = 2 matrix-model samplers
* analysis     closed-form limiting laws (any V = log(1+|x|^2) at
               beta = 2 on the line or the plane, whatever its name),
               goodness-of-fit distances and rate-function gaps
* cli          reproducible runs: sample | equilibrium | verify | analyze

Importing the package loads NumPy alone; the grid solver's FFT is
NumPy's.  Only ``el_residual`` on a closed-form law loads SciPy
(``scipy.integrate``), when called.
"""

__version__ = "0.1.0"

from .analysis import (
    ClosedFormLaw,
    FitReport,
    angular_ks_distance,
    cauchy_law,
    circle_uniform_law,
    closed_form,
    ks_distance,
    radial_cdf_distance,
    rate_gap,
    sphere_uniform_law,
    spherical_law,
)
from .energy import (
    DiagonalPolicy,
    log_density,
    log_density_sphere,
    measure_energy,
    signed_log_energy,
)
from .equilibrium import (
    GridMinimizeReport,
    GridSpec,
    closed_form_cell_masses,
    el_residual,
    fekete_descent,
    grid_minimize,
)
from .geometry import (
    CompactifiedPotential,
    chordal_distance,
    compactified_potential,
    project_array,
    pushforward,
    unproject_array,
)
from .model import (
    Admissibility,
    DiscreteMeasure,
    GasModel,
    PotentialSpec,
    Support,
    admissibility_check,
    cauchy_potential,
    quadratic_potential,
    spherical_potential,
    validate_configuration,
)
from .sampler import (
    ChainParams,
    ChainStats,
    chain_seed,
    mh_chain,
    mh_chains,
    proposal_log_ratio,
    sample_cauchy_ensemble,
    sample_spherical_ensemble,
)
from .verify import run_identity_suites
