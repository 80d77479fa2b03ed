"""MAP super-resolution: L2 fidelity + bilateral-TV prior, steepest descent.

Every image is real, so every spectrum the solver carries is Hermitian
and kept as its row half-plane (fourier.rfft2_rows; a common blur
commutes with the shifts, Elad & Hel-Or, IEEE TIP 10(8), 2001).  Per
observation, blur (the assumed PSF) and sub-pixel shift are one
Hermitian multiplier T_k on the HR half-plane; decimation folds the
spectrum onto the LR half-plane (fourier.fold, the operator the
simulator samples through) and the exact adjoint (fourier.unfold)
broadcasts it back over the blocks under conj(T_k).  The warm start is
the first observation's cubic-spline upsample, one closed-form separable
multiplier evaluated on the half-plane of its tiled spectrum, cut at the
LR Nyquist so that no alias ghost reads as modulation the data cannot
correct; that HR spectrum gives the first residuals.  The data cost is
the energy of each LR residual spectrum by Parseval,
2*|all rows|^2 - |bin-0 row|^2 - |Nyquist row|^2.  An iteration takes
two 2-D transforms, both through numpy.fft: the data gradient to image
space, where the BTV prior's gradient is added (irfft2_rows: a column
ifft and a row irfft), and the step candidate's spectrum (rfft2), whose
folds give its residuals; each step halving takes one more rfft2.
The BTV prior is one pass over contiguous slices of one raveled,
wrap-padded copy of the image's transpose: it gives each candidate's
gradient and, as <x, gradient>, its penalty; the accepted candidate's
gradient enters the next descent direction.  An adaptive step keeps
the cost trace non-increasing (see super_resolve).
A solve builds its working set once and every iteration writes into it
with out=: the iterate and the candidate, the prior gradient and a
spare (each pair swaps roles on an accepted step), one HR half-plane
spectrum, the LR residual and data spectra, the transfers, and the BTV
pass's wrap pad (which holds each unfold after the first while the
gradient is built), sign buffer and sum plane.  Every plane of it is
column-major: the fourier functions keep their operands' layout, so
the transforms' real pass runs along contiguous columns and every fold
and unfold block is a contiguous run of columns, which row-major planes
would make numpy stride through and buffer on every call; the BTV pass
runs on the row-major transpose.  Nothing of it outlives the call: each
solve builds its own, and the image it returns is a row-major copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import (fold, irfft2_rows, kernel_transfer, rfft2_rows,
                      shift_multiplier_2d, unfold)
from .grid import MAX_PIXELS, as_float, check_image
from .simulator import Observation, _hr_shape

__all__ = [
    "SolverConfig",
    "SrResult",
    "forward_model",
    "adjoint_model",
    "btv_penalty",
    "btv_gradient",
    "super_resolve",
    "bicubic_upsample",
    "check_btv_fits",
]


def _check_btv(alpha: float, p_radius: int) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    if p_radius < 1:
        raise ValueError("BTV window radius must be >= 1")


def check_btv_fits(p_radius: int, hr_shape: tuple[int, int]) -> None:
    """ValueError unless the BTV pass over the 3P(P+1)/2 shift pairs of an
    HR grid of this shape compares at most grid.MAX_PIXELS values, found
    before any shift pair is built."""
    (h, w), pairs = hr_shape, 3 * p_radius * (p_radius + 1) // 2
    if pairs * h * w > MAX_PIXELS:
        raise ValueError(f"solver P {p_radius}: the BTV window's {pairs} shift pairs "
                         f"of grid {h}x{w} compare more than {MAX_PIXELS} values "
                         f"(lower grid or solver P)")


@dataclass(frozen=True)
class SolverConfig:
    """Reconstruction knobs; the defaults are the calibrated budget.

    lam weights the BTV prior against the L2 fidelity term; alpha is the
    BTV spatial decay and p_radius its window radius.  beta0 is the
    initial (and maximum) step size.  sr_factor, when given, must match
    the observations' decimation.

    The default budget is the calibrated desk-scale experiment's: a fixed
    shallow descent (lam 0.6, 3 iterations) realizes the partial
    restoration this system actually delivers (the product resolution
    gain is ~1.48x, not the full 2x).  It stops short of convergence: at
    nominal parameters and noise seed child_seed(500, 0), lam 0.6
    measures 1.591, 1.525 and 1.509 m at 3, 20 and 50 iterations, with
    no collapse.  Only a weak prior collapses: lam 0.01 measures 1.526 m
    at 3 iterations and 1.355 m at 20, and at 200 the modulation curve
    no longer crosses the NEM, so no resolution is measured.  rel_tol is
    effectively off so every trial gets the same restoration depth; such
    solves report converged=False by design.
    """

    lam: float = 0.6
    alpha: float = 0.7
    p_radius: int = 2
    beta0: float = 1.0
    max_iters: int = 3
    rel_tol: float = 1e-9
    sr_factor: tuple[int, int] | None = None

    def __post_init__(self):
        for name, what in (("lam", "lambda"), ("alpha", "alpha"), ("beta0", "beta0"),
                           ("rel_tol", "rel_tol")):
            object.__setattr__(self, name, as_float(getattr(self, name), what))
        if not self.lam >= 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam!r}")
        _check_btv(self.alpha, self.p_radius)
        if not self.beta0 > 0:
            raise ValueError(f"initial step size must be > 0, got {self.beta0!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.rel_tol >= 0:
            raise ValueError(f"rel_tol must be >= 0, got {self.rel_tol!r}")


@dataclass
class SrResult:
    """Reconstruction output: HR estimate, per-iteration cost, stop reason,
    rejected step candidates and the last accepted step (0.0 if none)."""

    image: np.ndarray
    cost_trace: list[float]
    converged: bool
    step_halvings: int
    final_beta: float

    @property
    def iterations_run(self) -> int:
        """Accepted iterations: the cost trace holds the start and one cost per
        accepted step."""
        return len(self.cost_trace) - 1


def _transfers(observations, hr_shape: tuple[int, int]) -> list[np.ndarray]:
    """Each observation's multiplier of blur + shift on the HR half-plane
    (Hermitian), column-major as the solver's planes are.  kernel_transfer
    runs once per distinct PSF: kernels are compared by value, so
    hand-built observations with equal but separately built kernels share
    one transfer, as subarray_observations' pair does."""
    blurs: list[tuple[np.ndarray, np.ndarray]] = []
    transfers = []
    for o in observations:
        blur = next((t for k, t in blurs if np.array_equal(k, o.assumed_psf)), None)
        if blur is None:
            blur = kernel_transfer(o.assumed_psf, hr_shape)
            blurs.append((o.assumed_psf, blur))
        # shift times blur, in this order: numpy's complex product is
        # not bitwise commutative
        transfers.append(np.multiply(shift_multiplier_2d(hr_shape, o.shift_hr), blur,
                                     out=_plane(blur.shape, complex)))
    return transfers


def _plane(shape: tuple[int, int], dtype=np.float64) -> np.ndarray:
    """An uninitialized column-major plane: the solver's layout, in which
    the transforms' real pass and every fold block are contiguous."""
    return np.empty(shape, dtype, order="F")


def _sum_squares(a: np.ndarray) -> float:
    """Sum of |a|^2 without BLAS, whose threaded dot product would make a
    campaign's pool workers contend for the cores with their BLAS threads."""
    v = a.ravel(order="K").view(np.float64)
    return float(np.einsum("i,i->", v, v))


def _energy(r: np.ndarray, height: int) -> float:
    """Sum of squares of the real image of this height whose half-plane
    spectrum is r, by Parseval: the rows of bin 0 and, for an even
    height, Nyquist are their own twins and count once, all others twice."""
    energy = 2.0 * _sum_squares(r) - _sum_squares(r[0])
    if height % 2 == 0:
        energy -= _sum_squares(r[-1])
    return energy / (height * r.shape[1])


def forward_model(x: np.ndarray, obs: Observation) -> np.ndarray:
    """Apply the observation operator: blur, shift, decimate."""
    x = check_image(x, "estimate")
    if x.shape != obs.hr_shape:
        raise ValueError(f"estimate shape {x.shape} does not match observation "
                         f"geometry {obs.hr_shape}")
    spectrum = fold(_transfers([obs], obs.hr_shape)[0], rfft2_rows(x), obs.decimation)
    return irfft2_rows(spectrum, obs.image.shape, out=np.empty(obs.image.shape))


def adjoint_model(r: np.ndarray, obs: Observation) -> np.ndarray:
    """Exact adjoint of forward_model: zero-fill, inverse shift, correlate."""
    r = check_image(r, "residual")
    if r.shape != obs.image.shape:
        raise ValueError(f"residual shape {r.shape} does not match observation "
                         f"{obs.image.shape}")
    transfer = _transfers([obs], obs.hr_shape)[0]
    return irfft2_rows(unfold(transfer, rfft2_rows(r), obs.decimation), obs.hr_shape,
                       out=np.empty(obs.hr_shape))


def _btv_pairs(p_radius: int) -> list[list[tuple[int, int]]]:
    """The shift pairs of the pass over the image's transpose, in one list
    per weight |l| + m, the heaviest (2P) first.  The image's pair (l, m),
    m in [0, P], l in [-P, P], l + m > 0, shifts the transpose by (m, l),
    or by (-m, -l) when l < 0: the same difference reversed, whose terms
    are the same, so that every pair's row shift is >= 0."""
    p = p_radius
    return [[(m, l) if l >= 0 else (-m, -l) for m in range(p + 1) for l in range(-p, p + 1)
             if l + m > 0 and abs(l) + m == weight]
            for weight in range(2 * p, 0, -1)]


def _wrap_pad(x: np.ndarray, p: int, out: np.ndarray) -> np.ndarray:
    """np.pad(x, ((p, p + 1), (p, p)), mode="wrap") written into out by
    slice copies: x, then each pad column and each pad row from its
    periodic twin, so a side shorter than p wraps more than once."""
    (h, w), (height, width) = x.shape, out.shape
    out[p:p + h, p:p + w] = x
    for j in (*range(p), *range(p + w, width)):
        out[p:p + h, j] = out[p:p + h, p + (j - p) % w]
    for i in (*range(p), *range(p + h, height)):
        out[i] = out[p + (i - p) % h]
    return out


class _BtvBuffers:
    """The shift pairs, wrap pad, sign buffer and sum plane of the BTV pass
    over one grid (the transpose of the image's), built once and reused by
    every pass of a solve."""

    def __init__(self, shape: tuple[int, int], p_radius: int):
        (h, w), p = shape, p_radius
        self.pairs = _btv_pairs(p)
        self.pad = np.empty((h + 2 * p + 1, w + 2 * p))
        self.signs = np.empty((h + p) * (w + 2 * p) + p, dtype=np.int8)
        # each pair adds a sign difference in [-2, 2] to its weight's sum
        self.sums = np.empty((h, w + 2 * p),
                             np.min_scalar_type(-2 * max(map(len, self.pairs))))


def _btv(x: np.ndarray, alpha: float, p_radius: int, grad: np.ndarray | None = None,
         buffers: _BtvBuffers | None = None):
    """BTV penalty and subgradient (sign(0) = 0) in one pass.

    The pass runs on the transpose x.T, C-contiguous when x is
    column-major as the solver's planes are.  On it wrap-padded and
    raveled, pair (l, m)'s operands are contiguous slices k = m*W + l
    apart (W the padded width), and its sign plane, over h + m rows,
    holds the opposite difference's sign k further on.  The pairs of one
    weight are summed exactly in integers, heaviest weight first, and
    the gradient takes each weight's sum by Horner's rule in alpha.  BTV
    is positively 1-homogeneous: the penalty is <x, gradient> (Euler's
    identity).  The gradient goes into grad (fresh when not given); the
    pairs and the held planes are buffers', built for x.T's shape (fresh
    ones when not given).
    """
    y = x.T
    (h, w), p = y.shape, p_radius
    width, size = w + 2 * p, h * (w + 2 * p)
    buffers = buffers or _BtvBuffers(y.shape, p)
    flat = _wrap_pad(y, p, buffers.pad).reshape(-1)
    origin = p * width + p  # y[0, 0]
    s, total = buffers.signs, buffers.sums.reshape(size)
    grad = np.empty(x.shape) if grad is None else grad
    g = grad.T  # y's gradient
    for i, pairs in enumerate(buffers.pairs):
        total.fill(0)
        for l, m in pairs:
            k, n = m * width + l, size + m * width + p  # n signs reach the twins s[k:k + size]
            a, b = flat[origin:origin + n], flat[origin - k:origin - k + n]
            np.subtract(a > b, a < b, out=s[:n], dtype=np.int8)
            total += s[:size]
            total -= s[k:k + size]
        if i == 0:
            np.multiply(alpha, buffers.sums[:, :w], out=g)
        else:
            g += buffers.sums[:, :w]
            g *= alpha
    return float(np.einsum("i,i->", y.ravel(), g.ravel())), grad


def btv_penalty(x: np.ndarray, alpha: float, p_radius: int) -> float:
    """Bilateral total variation: decayed L1 norms of multi-shift differences.

    Sum over (l, m) with m in [0, P], l in [-P, P], l + m > 0 of
    alpha^(|l|+|m|) * ||x - shift(x, l, m)||_1 with circular shifts
    (l columns, m rows).
    """
    _check_btv(alpha, p_radius)
    return _btv(x, alpha, p_radius)[0]


def btv_gradient(x: np.ndarray, alpha: float, p_radius: int) -> np.ndarray:
    """Subgradient of btv_penalty, with sign(0) = 0."""
    _check_btv(alpha, p_radius)
    return _btv(x, alpha, p_radius)[1]


def _cubic_spectrum(lr_hat: np.ndarray, lr_shape: tuple[int, int],
                    decimation: tuple[int, int], band_limit: bool = False,
                    out: np.ndarray | None = None) -> np.ndarray:
    """HR half-plane spectrum of the periodic cubic-spline upsample of the LR
    image of this shape with half-plane spectrum lr_hat (Unser, Aldroubi &
    Eden, IEEE TSP 41(2), 1993): on an axis of LR length n and factor s,
    signed bin k of the tiled spectrum is weighted
    sum_{|r|<2s} beta3(r/s) cos(2 pi nu r/s) / (2/3 + cos(2 pi nu)/3), nu = k/n,
    an even function of k, so the rows take bins 0..n*s//2.  band_limit
    zeroes |k| >= n/2 on each decimated axis.  Written into out when given."""
    axes = []
    for freqs, n, s in zip((np.fft.rfftfreq, np.fft.fftfreq), lr_shape, decimation):
        k = np.rint(freqs(n * s) * (n * s))
        t = np.abs(np.arange(1 - 2 * s, 2 * s)) / s
        beta3 = np.where(t < 1, 2 / 3 - t**2 + t**3 / 2, (2 - t)**3 / 6)
        m = np.cos(2 * np.pi * np.outer(k / n, t)) @ beta3
        m /= 2 / 3 + np.cos(2 * np.pi * k / n) / 3
        if band_limit and s > 1:
            m[np.abs(k) >= n / 2] = 0.0
        axes.append(m.astype(complex))  # unfold multiplies into conj(m)
    return unfold(np.outer(*axes), lr_hat, decimation, out=out)


def bicubic_upsample(lr: np.ndarray, decimation: tuple[int, int]) -> np.ndarray:
    """Cubic-spline upsample aligned so output[i*s] == input[i], periodic."""
    lr = np.asarray(lr, dtype=np.float64)
    return irfft2_rows(_cubic_spectrum(rfft2_rows(lr), lr.shape, decimation),
                       _hr_shape(lr.shape, decimation))


MAX_HALVINGS = 30


# a step too large for float64 overflows to a non-finite cost, which the
# step search reports by name; numpy's warnings would only precede it
@np.errstate(over="ignore", invalid="ignore")
def super_resolve(observations, cfg: SolverConfig | None = None) -> SrResult:
    """Minimize the MAP cost by adaptive-step steepest descent.

    The descent starts from the first observation's cubic-spline upsample
    cut at the LR Nyquist and made in the spectrum.  The descent direction
    is -2 * sum_k adjoint(y_k - forward(x)) plus lam * btv_gradient(x).
    A step that fails to strictly decrease the cost halves the step size
    (up to 30 times, then the iteration stops as stationary); each
    accepted step grows it by 1.2x capped at beta0.  Stops when the
    relative cost decrease falls below rel_tol or at max_iters (reported
    via the converged flag, not an error).  cfg=None runs SolverConfig(),
    the calibrated 3-iteration budget.
    """
    observations = list(observations)
    if not observations:
        raise ValueError("need at least one observation")
    cfg = cfg or SolverConfig()
    decimation = observations[0].decimation
    if any(o.decimation != decimation for o in observations):
        raise ValueError("all observations must share decimation factors")
    if cfg.sr_factor is not None and tuple(cfg.sr_factor) != tuple(decimation):
        raise ValueError(f"sr_factor {cfg.sr_factor} does not match observation "
                         f"decimation {decimation}")
    hr_shape = observations[0].hr_shape
    if any(o.hr_shape != hr_shape for o in observations):
        raise ValueError("observations imply inconsistent HR geometry")
    check_btv_fits(cfg.p_radius, hr_shape)
    x, trace, converged, halvings, final_beta = _descend(observations, cfg)
    # the working set went with _descend's frame, so the row-major copy
    # adds no plane to the solve's peak
    return SrResult(image=x.copy(order="C"), cost_trace=trace, converged=converged,
                    step_halvings=halvings, final_beta=final_beta)


def _descend(observations: list[Observation], cfg: SolverConfig):
    """super_resolve's descent on checked observations: the iterate (a
    column-major plane), the cost trace, the converged flag, the step
    halvings and the last accepted step."""
    decimation, hr_shape = observations[0].decimation, observations[0].hr_shape
    lr_shape = observations[0].image.shape
    lr_half, hr_half = ((h // 2 + 1, w) for h, w in (lr_shape, hr_shape))
    transfers = _transfers(observations, hr_shape)
    y_hat = [rfft2_rows(o.image, out=_plane(lr_half, complex)) for o in observations]
    # The working set is built here, once, column-major, and every
    # iteration writes into it.  spec holds the warm start's spectrum,
    # then in turn each gradient spectrum (and its in-place inverse pass)
    # and each candidate's spectrum.  resid holds the LR residual spectra
    # fold - y of x, then of each candidate.
    spec = _cubic_spectrum(y_hat[0], lr_shape, decimation, band_limit=True,
                           out=_plane(hr_half, complex))
    resid = [_plane(lr_half, complex) for _ in observations]
    x, candidate, prior_grad, spare = (_plane(hr_shape) for _ in range(4))
    btv = _BtvBuffers(hr_shape[::-1], cfg.p_radius)
    # the BTV pad, idle while the gradient is built, holds each unfold
    # after the first
    unfolded = btv.pad.reshape(-1)[:2 * spec.size].view(complex).reshape(hr_half, order="F")

    def fold_residuals():
        """resid = fold - y of the image whose HR spectrum spec holds."""
        for y, t, r in zip(y_hat, transfers, resid):
            np.subtract(fold(t, spec, decimation, out=r), y, out=r)

    def cost(image: np.ndarray, grad: np.ndarray) -> float:
        """MAP cost at image, whose residuals resid holds; BTV's subgradient goes into grad."""
        return (sum(_energy(r, lr_shape[0]) for r in resid)
                + cfg.lam * _btv(image, cfg.alpha, cfg.p_radius, grad, btv)[0])

    # the warm start folds its residuals before irfft2_rows consumes spec
    fold_residuals()
    current = cost(irfft2_rows(spec, hr_shape, out=x), prior_grad)
    if not np.isfinite(current):
        raise FloatingPointError("non-finite cost at initialization")
    trace = [current]
    beta = cfg.beta0
    converged = False
    halvings, final_beta = 0, 0.0

    for _ in range(cfg.max_iters):
        # half the descent direction, lam/2 * BTV gradient + D with
        # D = sum_k adjoint(fold_k - y_k); the step doubles beta instead
        # (both scalings are exact)
        unfold(transfers[0], resid[0], decimation, out=spec)
        for r, t in zip(resid[1:], transfers[1:]):
            spec += unfold(t, r, decimation, out=unfolded)
        g = np.multiply(cfg.lam / 2, prior_grad, out=prior_grad)  # used once: scaled in place
        g += irfft2_rows(spec, hr_shape, out=candidate)
        for _ in range(MAX_HALVINGS + 1):
            np.subtract(x, np.multiply(2 * beta, g, out=candidate), out=candidate)
            rfft2_rows(candidate, out=spec)
            fold_residuals()
            c_new = cost(candidate, spare)
            if not np.isfinite(c_new):
                raise FloatingPointError(f"solver beta0 {cfg.beta0!r}: the step of size "
                                         f"{beta!r} overflowed to a non-finite cost")
            if c_new < current:
                break
            beta *= 0.5
            halvings += 1
        else:
            # step size collapsed: stationary within numerical resolution
            converged = True
            break
        # the accepted candidate's buffers become the iterate's, and the
        # iterate's are the next candidate's
        x, candidate = candidate, x
        prior_grad, spare = spare, prior_grad
        final_beta = beta
        previous, current = current, c_new
        trace.append(current)
        beta = min(beta * 1.2, cfg.beta0)
        if (previous - current) <= cfg.rel_tol * max(previous, np.finfo(float).tiny):
            converged = True
            break

    return x, trace, converged, halvings, final_beta
