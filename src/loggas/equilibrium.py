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
monotone by fallback (not MFISTA: see ``grid_minimize``), and the
stopping certificate is the standard linear-minimization duality gap
max_s <grad, w - s> = <grad, w> - min_a grad_a,  which bounds the
suboptimality E(w) - E*.  Q is linear, so the extrapolated point's Q y
is formed from the products of the iterates that y combines: an
iteration applies Q once, twice on a fallback.

The step is 1/(2 * 1.05 * ||P K P||), P = I - 11^T/N and K the log part
of Q.  Every step z - y has zero sum, and on zero-sum vectors the
potential part and the constant -(beta/2) log h of K drop out, so the
step depends on beta, the dimension and m only, not on V, the window or h.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np
from numpy import fft

from .analysis import ClosedFormLaw, closed_form
from .energy import _pair_kernel, log_density
from .model import DiscreteMeasure, GasModel, Support, validate_configuration

# The largest max|V| times atom count N a grid may have.  The solve applies Q
# to simplex weights, |w|_1 = 1, so the potential part of Q w is at most max|V|
# per entry, and a projection's cumulative sums over N such entries stay within
# a small multiple of N max|V|: far below the float maximum, 1.8e308.  The
# step's power iteration applies only Q's log part (``_spectral_norm``), so V
# never enters it.
MAX_POTENTIAL_SCALE = 1e150


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
        # The solver's largest array is its circulant spectrum, about (2m)^d
        # complex values; NumPy sizes arrays in signed 64-bit bytes.
        ndim = 2 if self.is_planar else 1
        if 16 * (2 * self.resolution) ** ndim >= 2**63:
            raise ValueError(
                f"grid.resolution: {self.resolution} is too large: the solver's "
                f"(2 x resolution)^{ndim} complex values would take 2**63 bytes or more"
            )
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
    """Raise ValueError unless grid_minimize accepts ``model`` on ``grid``.

    Each message starts with the field at fault, named as in a run
    config: model.support, model.beta, model.potential.params.log_coeff,
    model.potential.params.poly or grid.window.
    """
    if not model.support.solver_allowed:
        raise ValueError("model.support: the solver accepts only the real line and the plane")
    model.require_weak_growth()
    if grid.is_planar != (model.support is Support.COMPLEX_PLANE):
        raise ValueError("grid.window: grid dimensionality does not match the support")
    if model.potential.is_even and any(
        abs(lo + hi) > 1e-9 * max(abs(lo), abs(hi), 1.0) for lo, hi in grid.axes
    ):
        raise ValueError("grid.window: must be symmetric about 0 for an even potential")
    # Row by row: whole-grid temporaries here raised a 60 x 60 solve's peak RSS 0.3 MB.
    rows = grid.atoms()[0].reshape(-1, grid.resolution)
    v_max = np.max([np.abs(model.potential_values(row)).max() for row in rows])
    if not np.isfinite(v_max):
        raise ValueError("grid.window: V is not finite at every atom; narrow the window")
    if v_max > MAX_POTENTIAL_SCALE / rows.size:
        raise ValueError(
            f"grid.window: max |V| is {v_max:.3g} on {rows.size} atoms, whose product must be "
            f"at most {MAX_POTENTIAL_SCALE:g} or the solver's Q w overflows; narrow the window"
        )


def _fft_length(n: int) -> int:
    """The smallest 5-smooth integer >= n, a length the real FFT handles fast.

    Below 2**64 an integer is 5-smooth exactly when it divides 30**64.
    """
    while pow(30, 64, n):
        n += 1
    return n


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    The input is first shifted by its maximum, which leaves the projection
    unchanged: unshifted, u[0] - (u[0] - 1) rounds to 0 once max(v) passes
    about 2**53, and no index qualifies.
    """
    v = v - v.max()
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
        n = _fft_length(2 * m - 1)
        self._scale = 1.0 / n**ndim
        offsets = np.arange(1 - m, m) * h
        dist = np.hypot.outer(offsets, offsets) if grid.is_planar else np.abs(offsets)
        dist[(m - 1,) * ndim] = h / 2.0
        circulant = np.zeros((n,) * ndim)
        wrapped = np.arange(1 - m, m) % n
        circulant[np.ix_(*(wrapped,) * ndim)] = _pair_kernel(model.beta, dist, 0.0, 0.0)
        self._kernel_hat = fft.rfftn(circulant)
        self._potential = model.potential_values(self.atoms)
        # Work arrays, made once: FFT arrays made per call (~100 KB at 60 x 60) let malloc
        # return their pages and fault them in again, at a cost set by the heap's layout.
        self._signal = np.zeros(self._shape[:-1] + (n,))  # w, zero-padded on the last axis
        self._rows = np.empty(self._shape[:-1] + self._kernel_hat.shape[-1:], dtype=complex)
        self._spectrum = np.empty_like(self._kernel_hat)
        self._conv = np.empty_like(self._signal)

    def log_part(self, w: np.ndarray) -> np.ndarray:
        """K w, the log-kernel part of Q w, for any real w.

        The FFTs are rfftn's and irfftn's, by axis; irfft runs on the result's m rows only.
        """
        m, n = self._shape[0], self._signal.shape[-1]
        self._signal[..., :m] = w.reshape(self._shape)
        spectrum = fft.rfft(self._signal, out=self._rows)
        if len(self._shape) == 2:
            spectrum = fft.fft(spectrum, n, axis=0, out=self._spectrum)
        spectrum *= self._kernel_hat
        if len(self._shape) == 2:
            spectrum = fft.ifft(spectrum, axis=0, norm="forward", out=spectrum)[:m]
        conv = fft.irfft(spectrum, n, norm="forward", out=self._conv)
        return (conv[..., :m] * self._scale).ravel()

    def __call__(self, w: np.ndarray) -> np.ndarray:
        """Q w for any real w; the weights need not sum to 1."""
        v = self._potential
        return self.log_part(w) + 0.5 * v * w.sum() + 0.5 * (v @ w)


def _spectral_norm(q: GridKernel) -> float:
    """||P K P|| = ||P Q P||, P = I - 11^T/N, by a power iteration through
    ``q.log_part`` with each iterate's mean removed.  Through the whole Q, the
    mean of potential terms near max|V| would leave a rounding residue that
    swamps the norm."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(len(q.atoms))
    v -= v.mean()
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(20):
        w = q.log_part(v)
        w -= w.mean()
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
    law = closed_form(model)
    if law is None:
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

    The loop is not MFISTA (Beck and Teboulle, IEEE Trans. Image Process.
    18, 2009; read x_k as w_new, z_k as z).  Its momentum b (w_new - w_prev)
    takes the iterate two back, where MFISTA's b (x_k - x_{k-1}) takes the
    one before; its z and w_new weights are swapped, y = z + a (w_new - z)
    against x_k + a (z_k - x_k); and it resets t to 1 on a fallback, which
    is a gradient step from w where MFISTA keeps x_k = x_{k-1}.

    The step is 1/(2 * 1.05 * ||P K P||): 2 ||P K P|| is the Lipschitz
    constant of the gradient 2 Q w on the zero-sum directions the iterates
    move in, and 1.05 a margin.  P = I - 11^T/N removes the rank-2 potential
    part (v 1^T + 1 v^T)/2 and K's constant -(beta/2) log h, so V does not
    set the step.

    The extrapolated point y = z + a (w_new - z) + b (w_new - w_prev) has
    Q y = Q z + a (Q w_new - Q z) + b (Q w_new - Q w_prev), each term a
    product ``GridKernel`` made directly in this iteration or the one
    before, so Q y costs no product and its rounding does not accumulate.
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
    y, qy = w.copy(), qw
    w_prev, qw_prev = w.copy(), qw
    t = 1.0
    iterations = 0
    converged = False
    for k in range(1, grid.max_iter + 1):
        iterations = k
        z = project_to_simplex(y - step * 2.0 * qy)
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
        a, b = t / t_next, (t - 1.0) / t_next
        y = z + a * (w_new - z) + b * (w_new - w_prev)
        # Q is linear, so Q y is the same combination of products made directly.
        qy = qz + a * (q_new - qz) + b * (q_new - qw_prev)
        w_prev, w, energy_w = w, w_new, energy_new
        qw_prev, qw = qw, q_new
        t = t_next
        if on_iterate is not None:
            on_iterate(k, energy_w, gap)
        if gap < best_gap:
            best_w, best_gap = w, gap
        if gap < grid.tol:
            converged = True
            break

    weights = best_w / math.fsum(best_w.tolist())
    measure = DiscreteMeasure(q.atoms, weights)
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
    law = closed_form(model)
    if law is None:
        raise ValueError(f"no closed-form limit on {model.support.value} at beta={model.beta}")
    edges = [np.linspace(lo, hi, grid.resolution + 1) for lo, hi in grid.axes]
    masses = law.box_masses(edges).ravel()
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
        raise RuntimeError(
            f"integral on [{a}, {b}] reported error {abserr:.2e} > {fail_tol:.2e}"
        )
    return val


def _log_potential_line(law: ClosedFormLaw, x: float) -> float:
    """integral of log|x - y| against a density on the line.

    In the distance s = |y - x| it is int_0^inf (rho(x - s) + rho(x + s))
    log s ds, split at s = 1: the log singularity sits at s = 0, where the
    adaptive rule handles it.
    """
    f = lambda s: float(law.density(np.array([x - s, x + s])).sum()) * math.log(s)
    return _quad(f, 0.0, 1.0, 1e-7, **_QUAD_OPTS) + _quad(f, 1.0, math.inf, 1e-7, **_QUAD_OPTS)


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
