"""Limiting measures: grid minimization and optimality checks.

A convex discrete energy is minimized over probability weights on a
grid.  ``analysis`` knows the closed-form law of any V = log(1+|x|^2)
at beta = 2 on the line or the plane, whatever its name; here its box
masses give the mass a window captures and the exact mass of each grid
cell, and such laws serve as candidates for the effective-potential
residual.  The solve needs only NumPy (its FFT included);
``scipy.integrate`` loads at the first quadrature.

The discrete objective is E(w) = w^T Q w with Q the pair kernel matrix,
off-diagonal entries the weighted log kernel and diagonal entries the
spacing-regularized self energy.  Q is never formed: on a uniform grid
its log part depends only on index differences (Toeplitz on the line,
block-Toeplitz on the plane) and is applied by FFT through a circulant
embedding, and its potential part has rank 2, so a solve needs O(m^2)
memory on an m x m planar grid instead of O(m^4).  E is convex on the
simplex; iterates use an accelerated projected-gradient scheme kept
monotone by fallback, and the stopping certificate is the standard
linear-minimization duality gap  max_s <grad, w - s> = <grad, w> -
min_a grad_a,  which bounds the suboptimality E(w) - E*.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np
from numpy import fft

from .analysis import ClosedFormLaw, closed_form
from .energy import _pair_kernel, log_density
from .errors import InadmissibleModel, NoClosedForm, QuadratureFailure
from .model import DiscreteMeasure, GasModel, Support, validate_configuration


@dataclass(frozen=True)
class GridSpec:
    """A discretization window, per-axis atom count and solver stopping rule.

    ``window`` is (lo, hi) on the line or ((xlo, xhi), (ylo, yhi)) on the
    plane (square windows only); atoms sit at cell centers.  A solve stops
    at a duality gap below ``tol`` or after ``max_iter`` iterations.
    """

    window: tuple
    resolution: int
    tol: float = 1e-4
    max_iter: int = 20000

    def __post_init__(self):
        if self.resolution < 16:
            raise ValueError(f"grid.resolution: must be an integer >= 16, got {self.resolution}")
        if not self.tol > 0:
            raise ValueError("grid.tol: must be positive")
        if self.max_iter < 1:
            raise ValueError("grid.max_iter: integer >= 1")
        if not all(lo < hi for lo, hi in self.axes):
            raise ValueError("grid.window: needs lo < hi")
        if self.is_planar:
            (xlo, xhi), (ylo, yhi) = self.window
            wx, wy = xhi - xlo, yhi - ylo
            if abs(wx - wy) > 1e-12 * max(wx, wy):
                raise ValueError("grid.window: planar windows must be square")

    @property
    def is_planar(self) -> bool:
        return hasattr(self.window[0], "__len__")

    @property
    def axes(self) -> tuple:
        """The (lo, hi) pair of each axis."""
        return self.window if self.is_planar else (self.window,)

    def atoms(self) -> tuple[np.ndarray, float]:
        """Cell-center positions (complex array) and the cell spacing."""
        m = self.resolution
        h = [(hi - lo) / m for lo, hi in self.axes]
        centers = [lo + (np.arange(m) + 0.5) * hk for (lo, _), hk in zip(self.axes, h)]
        if not self.is_planar:
            return centers[0].astype(complex), h[0]
        xs, ys = centers
        return (xs[None, :] + 1j * ys[:, None]).ravel(), h[0]


def check_solvable(model: GasModel, grid: GridSpec) -> None:
    """Raise unless grid_minimize accepts ``model`` on ``grid``.

    Each message starts with the field at fault, named as in a run
    config: model.support, model.beta, model.potential.beta_prime or
    grid.window.
    """
    if not model.support.solver_allowed:
        raise InadmissibleModel(
            "model.support: the solver accepts only the real line and the plane"
        )
    model.require_weak_growth()
    if grid.is_planar != (model.support is Support.COMPLEX_PLANE):
        raise ValueError("grid.window: grid dimensionality does not match the support")
    if model.potential.is_even and any(
        abs(lo + hi) > 1e-9 * max(abs(lo), abs(hi), 1.0) for lo, hi in grid.axes
    ):
        raise ValueError("grid.window: must be symmetric about 0 for an even potential")
    # Row by row: whole-grid temporaries here raised a 60 x 60 solve's peak RSS 0.3 MB.
    rows = grid.atoms()[0].reshape(-1, grid.resolution)
    with np.errstate(over="ignore", invalid="ignore"):
        if not all(np.isfinite(model.potential_values(row)).all() for row in rows):
            raise ValueError("grid.window: V is not finite at every atom; narrow the window")


def _fft_length(n: int) -> int:
    """The smallest 5-smooth integer >= n, a length the real FFT handles fast.

    Below 2**64 an integer is 5-smooth exactly when it divides 30**64.
    """
    while pow(30, 64, n):
        n += 1
    return n


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    rho = idx[u - css / idx > 0][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


class GridKernel:
    """The pair kernel matrix Q of a uniform grid, applied without forming it.

    Q_ab = K(p_a - p_b) + (v_a + v_b)/2 with K = -(beta/2) log|.| off the
    diagonal and the regularized self energy -(beta/2) log(h/2) on it.
    K is tabulated once over the offsets -(m-1)..m-1 per axis and
    embedded in a circulant of at least 2m - 1 points per axis, whose
    action is a pointwise product of real FFTs; the potential part is
    applied as the rank-2 term v (1^T w)/2 + (v^T w) 1/2.  The unscaled
    inverse FFT is multiplied once by 1/N (N the circulant size), not per axis.
    """

    def __init__(self, model: GasModel, grid: GridSpec):
        self.atoms, h = grid.atoms()
        m = grid.resolution
        ndim = 2 if grid.is_planar else 1
        self._shape = (m,) * ndim
        self._fft_shape = (_fft_length(2 * m - 1),) * ndim
        self._axes = tuple(range(ndim))
        self._scale = 1.0 / math.prod(self._fft_shape)
        offsets = np.arange(1 - m, m) * h
        if grid.is_planar:
            dist = np.hypot(offsets[:, None], offsets[None, :])
        else:
            dist = np.abs(offsets)
        dist[(m - 1,) * ndim] = h / 2.0
        circulant = np.zeros(self._fft_shape)
        wrapped = np.arange(1 - m, m) % self._fft_shape[0]
        circulant[np.ix_(*(wrapped,) * ndim)] = _pair_kernel(model.beta, dist, 0.0, 0.0)
        self._kernel_hat = fft.rfftn(circulant, axes=self._axes)
        self._potential = model.potential_values(self.atoms)

    def __call__(self, w: np.ndarray) -> np.ndarray:
        """Q w for any real w; the weights need not sum to 1."""
        spectrum = fft.rfftn(w.reshape(self._shape), self._fft_shape, self._axes)
        conv = fft.irfftn(spectrum * self._kernel_hat, self._fft_shape, self._axes, "forward")
        kw = (conv[tuple(slice(m) for m in self._shape)] * self._scale).ravel()
        v = self._potential
        return kw + 0.5 * v * w.sum() + 0.5 * (v @ w)


def _spectral_norm(q: GridKernel) -> float:
    rng = np.random.default_rng(0)
    v = rng.standard_normal(len(q.atoms))
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(80):
        w = q(v)
        lam = np.linalg.norm(w)
        if lam == 0.0:
            return 1.0
        v = w / lam
    return lam


@dataclass(frozen=True)
class GridMinimizeReport:
    energy: float
    gap: float
    iterations: int
    captured_mass: float | None
    converged: bool

    def to_json(self) -> dict:
        return asdict(self)


def captured_mass(model: GasModel, window: tuple) -> float | None:
    """Closed-form mass inside a grid window, None without a closed form.

    ``window`` is (lo, hi) on the line or ((xlo, xhi), (ylo, yhi)) on the
    plane: the one box whose mass ``ClosedFormLaw.box_masses`` gives.
    """
    try:
        law = closed_form(model)
    except NoClosedForm:
        return None
    return law.box_masses(np.reshape(window, (-1, 2))).item()


def grid_minimize(
    model: GasModel,
    grid: GridSpec,
    init_weights: np.ndarray | None = None,
    on_iterate=None,
) -> tuple[DiscreteMeasure, GridMinimizeReport]:
    """Minimize the regularized discrete energy over weights on the grid.

    Returns the minimizing measure and a report with the final energy,
    duality gap, iteration count, and the closed-form mass captured by
    the window (None when no closed form exists).  If the gap is still
    above ``grid.tol`` after ``grid.max_iter`` iterations the best iterate
    is returned flagged (converged=False).  ``on_iterate(k, energy, gap)``,
    when given, is called once per iteration with the monotone objective
    value and the certificate gap.
    """
    check_solvable(model, grid)

    q = GridKernel(model, grid)
    size = len(q.atoms)
    step = 1.0 / (2.0 * _spectral_norm(q) * 1.05)

    if init_weights is None:
        w = np.full(size, 1.0 / size)
    else:
        w = project_to_simplex(np.asarray(init_weights, dtype=float))
    qw = q(w)
    energy_w = float(w @ qw)

    best_w, best_gap = w, math.inf
    y = w.copy()
    w_prev = w.copy()
    t = 1.0
    iterations = 0
    converged = False
    for k in range(1, grid.max_iter + 1):
        iterations = k
        z = project_to_simplex(y - step * 2.0 * q(y))
        qz = q(z)
        energy_z = float(z @ qz)
        if energy_z <= energy_w:
            w_new, q_new, energy_new = z, qz, energy_z
        else:
            # Monotone fallback: plain projected-gradient step from w.
            w_new = project_to_simplex(w - step * 2.0 * qw)
            q_new = q(w_new)
            energy_new = float(w_new @ q_new)
            t = 1.0
        grad = 2.0 * q_new
        gap = float(grad @ w_new - grad.min())
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = z + (t / t_next) * (w_new - z) + ((t - 1.0) / t_next) * (w_new - w_prev)
        w_prev, w, qw, energy_w = w, w_new, q_new, energy_new
        t = t_next
        if on_iterate is not None:
            on_iterate(k, energy_w, gap)
        if gap < best_gap:
            best_w, best_gap = w, gap
        if gap < grid.tol:
            converged = True
            break

    weights = best_w / math.fsum(best_w.tolist())
    measure = DiscreteMeasure(q.atoms, weights, side="plane")
    report = GridMinimizeReport(
        energy=float(weights @ q(weights)),
        gap=best_gap,
        iterations=iterations,
        captured_mass=captured_mass(model, grid.window),
        converged=converged,
    )
    return measure, report


def closed_form_cell_masses(model: GasModel, grid: GridSpec) -> np.ndarray:
    """Window-renormalized closed-form mass of each grid cell, in atom order.

    Used to compare solver weights against the known law of any
    V = log(1+|x|^2) at beta = 2 on the line or the plane: the cells are
    the boxes of ``ClosedFormLaw.box_masses``, so each mass is exact.
    """
    edges = [np.linspace(lo, hi, grid.resolution + 1) for lo, hi in grid.axes]
    masses = closed_form(model).box_masses(edges).ravel()
    return masses / math.fsum(masses.tolist())


def _pairwise_gradient(points: np.ndarray, model: GasModel) -> np.ndarray:
    diff = points[:, None] - points[None, :]
    dist2 = np.abs(diff) ** 2
    np.fill_diagonal(dist2, 1.0)
    inv = diff / dist2
    np.fill_diagonal(inv, 0.0)
    return model.beta * inv.sum(axis=1) - model.n * model.potential_gradient(points)


def fekete_descent(
    model: GasModel, init, max_iter: int = 2000, grad_tol: float = 1e-10
) -> np.ndarray:
    """Gradient ascent on the Gibbs log-density from the n points ``init``,
    with backtracking line search; returns the n points reached.

    Stops when the sup-norm of the position gradient drops to grad_tol or
    after max_iter accepted steps; the log-density never decreases across
    accepted iterations, and steps that would collide particles or leave
    the support are rejected by the line search, whose first trial step
    is 0.1/n.
    """
    validate_configuration(init, model)
    x = np.array(init, dtype=complex)
    gamma = 0.1 / model.n
    ld = log_density(x, model)

    for _ in range(max_iter):
        g = _pairwise_gradient(x, model)
        if np.max(np.abs(g)) <= grad_tol:
            break
        gnorm2 = float(np.sum(np.abs(g) ** 2))
        accepted = False
        for _ in range(60):
            x_new = x + gamma * g
            if model.support.is_real:
                x_new = x_new.real.astype(complex)
            if not np.all(model.support.contains_array(x_new)):
                gamma *= 0.5
                continue
            ld_new = log_density(x_new, model)
            if not np.isfinite(ld_new) or ld_new < ld + 1e-4 * gamma * gnorm2:
                gamma *= 0.5
                continue
            x, ld = x_new, ld_new
            gamma *= 1.25
            accepted = True
            break
        if not accepted:
            break
    return x


_QUAD_OPTS = dict(limit=200, epsabs=1e-11, epsrel=1e-11)


def _quad(f, a, b, fail_tol: float, **kw):
    from scipy import integrate

    res = integrate.quad(f, a, b, full_output=1, **kw)
    val, abserr = res[0], res[1]
    if abserr > fail_tol:
        raise QuadratureFailure(
            f"integral on [{a}, {b}] reported error {abserr:.2e} > {fail_tol:.2e}"
        )
    return val


def _log_potential_line(law: ClosedFormLaw, x: float) -> float:
    """integral of log|x - y| against a density on the line.

    The domain splits at the singularity y = x; the two near pieces use
    the change of variables u = |y - x| so the log endpoint singularity
    sits at u = 0 where the adaptive rule handles it.
    """
    fail = 1e-7
    near_minus = _quad(lambda u: law.density(x - u) * math.log(u), 0.0, 1.0, fail, **_QUAD_OPTS)
    near_plus = _quad(lambda u: law.density(x + u) * math.log(u), 0.0, 1.0, fail, **_QUAD_OPTS)
    far_plus = _quad(
        lambda y: law.density(y) * math.log(y - x), x + 1.0, math.inf, fail, **_QUAD_OPTS
    )
    far_minus = _quad(
        lambda y: law.density(y) * math.log(x - y), -math.inf, x - 1.0, fail, **_QUAD_OPTS
    )
    return near_minus + near_plus + far_plus + far_minus


def _log_potential_radial(law: ClosedFormLaw, x: float) -> float:
    """integral of log|x - y| against a radial area density on the plane.

    By Jensen's formula the angular mean of log|x - r e^{i theta}| is
    log max(x, r), so the integral is
    F(x) log x + int_x^inf 2 pi rho(r) r log r dr, F the radial CDF.
    """

    def f(r: float) -> float:
        return 2.0 * math.pi * float(law.density(complex(r))) * r * math.log(r)

    inside = float(law.cdf(x)) * math.log(x) if x > 0 else 0.0
    return inside + _quad(f, x, math.inf, 1e-8, **_QUAD_OPTS)


def _log_potential_atoms(mu: DiscreteMeasure, x: complex) -> float:
    """sum_a w_a log|x - p_a|, -inf at an atom."""
    sep = np.abs(x - mu.positions)
    if np.any(sep == 0.0):
        return -math.inf
    return math.fsum((mu.weights * np.log(sep)).tolist())


def el_residual(
    candidate: ClosedFormLaw | DiscreteMeasure,
    model: GasModel,
    probe_points: Sequence[complex],
) -> np.ndarray:
    """Effective potential U(x) = beta * int log(1/|x-y|) dmu(y) + V(x).

    U is constant on the support of the true minimizer; the candidate is
    either a closed-form law (adaptive quadrature with singularity
    splitting) or a discrete measure (direct sum, +inf at its atoms).
    """
    if isinstance(candidate, DiscreteMeasure):
        if candidate.side != "plane":
            raise ValueError("el_residual expects a plane-side measure")
        log_potential = lambda x: _log_potential_atoms(candidate, x)
    elif candidate.variable == "x":
        log_potential = lambda x: _log_potential_line(candidate, float(x.real))
    elif candidate.variable == "r":
        log_potential = lambda x: _log_potential_radial(candidate, abs(x))
    else:
        raise ValueError("el_residual supports plane-side laws and measures only")
    probes = np.asarray(probe_points, dtype=complex)
    log_pot = np.array([log_potential(x) for x in probes], dtype=float)
    return -model.beta * log_pot + model.potential_values(probes)
