"""Independent numeric checks of the series engine's order and coefficient claims.

Nothing here touches the power-series code path: sequences are composed with
plain float64 matrix arithmetic over whole error grids, infidelities are
swept over geometric grids, and error orders and leading coefficients are
recovered from log-log slopes and small-x extrapolation.  Every sweep along
one error axis goes through :func:`axis_sweep`, which maps the axis to its
error model (the inverse of ``su2.KIND_AXIS``), takes the sequence's own
target or the identity for a bare pulse list, and checks and sorts the grid.
The infidelity is taken from the Pauli (sigma) part of the residual unitary
rather than from 1 - |Tr/2|, so it carries no cancellation floor and needs
no extended precision: results are the same on every platform, whatever its
``longdouble``.  The degree-3 magnitudes of :func:`crossover_scan` are Taylor
coefficients read off the same residual on a contour of complex pulse-length
fractions (:func:`compulse.su2.contour_sigma_norms`).  The whole
angle grid of one variant is a single batched composition; the bisection for
the crossover then evaluates one angle per step.
Agreement between the two routes is what certifies a sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .sequences import build
from .su2 import KIND_AXIS, SIMULTANEOUS, Pulse, contour_sigma_norms, residual_grid, rotation

#: sweep defaults: geometric grid and the infidelity window used for fitting
GRID_MIN, GRID_MAX, GRID_POINTS = 1e-4, 1e-1, 25
FIT_WINDOW = (1e-14, 1e-2)

_AXIS_KIND = {axis: kind for kind, axis in KIND_AXIS.items()}


def geometric_grid(lo: float = GRID_MIN, hi: float = GRID_MAX, n: int = GRID_POINTS) -> np.ndarray:
    return np.geomspace(lo, hi, n)


class _PulseColumn(NamedTuple):
    """Pulse position j of n sequences at once: angles and phases as (n, 1)
    columns, so that they broadcast against a 1-D grid of error fractions.
    Only the pulse-length model, which reads nothing else, composes these."""

    angle: np.ndarray
    phase: np.ndarray


def infidelity_grid(pulses, kind: str, eps, f, target: Pulse) -> np.ndarray:
    """1 - |Tr(V U^dag)|/2 at every point of the broadcast grid of (eps, f).

    With W = V U^dag = a0 I + a.sigma (see :func:`~compulse.su2.residual_grid`), the
    infidelity is evaluated as |a|^2 / (1 + |a0|), which equals 1 - |a0| for
    unitary W but involves no cancellation, so float64 resolves it far below
    1e-16.
    """
    w = residual_grid(pulses, kind, eps, f, rotation(target.angle, target.phase))
    a0 = np.abs(w[..., 0, 0] + w[..., 1, 1]) / 2.0
    az = np.abs(w[..., 0, 0] - w[..., 1, 1]) / 2.0
    # |a_x|^2 + |a_y|^2 = (|w01|^2 + |w10|^2) / 2
    a2 = az * az + (np.abs(w[..., 0, 1]) ** 2 + np.abs(w[..., 1, 0]) ** 2) / 2.0
    return a2 / (1.0 + a0)


def infidelity_ld(pulses, kind: str, eps, f, target: Pulse) -> float:
    """Scalar form of :func:`infidelity_grid` at one (eps, f) point.

    The name dates from an extended-precision implementation.  It is not
    exported by the package; it is kept because the benchmark calls and
    traces it by name.
    """
    return float(infidelity_grid(pulses, kind, eps, f, target))


def _target(seq) -> Pulse:
    """The sequence's own target, or the identity for a bare pulse list."""
    return getattr(seq, "target", Pulse(0.0, 0.0))


def axis_sweep(seq, axis: str, grid=None) -> tuple[np.ndarray, np.ndarray]:
    """Grid and infidelities of a sweep along one error axis ("eps" or "f").

    ``grid`` defaults to :func:`geometric_grid`.  It must be 1-D, non-empty,
    finite and nonnegative, and it comes back sorted ascending, which the
    fits rely on.
    """
    if axis not in _AXIS_KIND:
        raise ValueError(f"unknown sweep axis {axis!r}; expected 'eps' or 'f'")
    grid = geometric_grid() if grid is None else np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"the sweep grid must be a non-empty 1-D array, got shape {grid.shape}")
    if not (np.isfinite(grid) & (grid >= 0.0)).all():
        raise ValueError("the sweep grid must hold finite, nonnegative error fractions only")
    grid = np.sort(grid)
    eps, f = (grid, 0.0) if axis == "eps" else (0.0, grid)
    return grid, infidelity_grid(seq, _AXIS_KIND[axis], eps, f, _target(seq))


def _extrapolate(x: np.ndarray, r: np.ndarray) -> float:
    """Value at x = 0 of the least squares fit of r in (1, x, x^2)."""
    basis = np.vstack([np.ones_like(x), x, x * x]).T
    coeffs, *_ = np.linalg.lstsq(basis, r, rcond=None)
    return float(coeffs[0])


@dataclass(frozen=True, slots=True)
class SweepResult:
    """Infidelity sweep plus the log-log fit over the clean window.

    ``order`` is the rounded slope/2 when the fit is unambiguous, None when
    it is not; ``beyond_resolution`` marks sweeps whose infidelities never
    rise above the rounding floor (exact identities).
    """

    values: np.ndarray
    infidelities: np.ndarray
    slope: float | None
    intercept: float | None
    order: int | None
    ambiguous: bool
    beyond_resolution: bool
    fit_residual: float | None
    points_used: int


def estimate_order(seq, axis: str, grid=None) -> SweepResult:
    """Infer the error order of a sequence from a log-log infidelity sweep.

    ``axis`` selects the error variable: "eps" sweeps a pure pulse-length
    error, "f" a pure off-resonance error.  Only grid points whose
    infidelity falls inside ``FIT_WINDOW`` enter the fit (below it is
    rounding noise, above it higher orders contaminate the slope); the order
    is accepted when slope/2 is within 0.1 of an integer.  The grid is
    checked and sorted by :func:`axis_sweep`.
    """
    grid, infid = axis_sweep(seq, axis, grid)
    lo, hi = FIT_WINDOW
    keep = (infid >= lo) & (infid <= hi)
    if keep.sum() < 3:
        beyond = bool((infid < lo).all())
        return SweepResult(grid, infid, None, None, None, not beyond, beyond, None, int(keep.sum()))
    x_all = np.log(grid[keep])
    y_all = np.log(infid[keep])

    # The slope approaches 2n only as x -> 0; when the next-order coefficient
    # is much larger than the leading one, the top of the clean window still
    # bends the fit.  Trim from the large-x end until slope/2 locks onto an
    # integer, keeping at least 4 points; report the full-window fit if it
    # never does.
    chosen = None
    for stop in range(len(x_all), 2, -1):
        x, y = x_all[:stop], y_all[:stop]
        slope, intercept = np.polyfit(x, y, 1)
        resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
        n = round(slope / 2.0)
        ambiguous = abs(slope / 2.0 - n) >= 0.1 or n < 1
        if chosen is None:
            chosen = (slope, intercept, resid, n, ambiguous, stop)
        if not ambiguous and stop >= 4:
            chosen = (slope, intercept, resid, n, ambiguous, stop)
            break
    slope, intercept, resid, n, ambiguous, used = chosen
    return SweepResult(
        grid,
        infid,
        float(slope),
        float(intercept),
        None if ambiguous else int(n),
        ambiguous,
        False,
        resid,
        int(used),
    )


def fit_leading_coefficient(seq, axis: str, degree: int) -> float:
    """Fit c in infidelity = c x^degree + ... from the small-x end of a sweep.

    The reduced values y/x^degree are extrapolated to x = 0 with a least
    squares fit in (1, x, x^2), which absorbs one odd and one even
    correction term.  Points are used only where the infidelity is large
    enough to be clean and small enough that degree+3 terms stay negligible.
    """
    grid, infid = axis_sweep(seq, axis)
    floor = FIT_WINDOW[0]
    keep = (infid >= floor) & (infid <= 1e-7)
    if keep.sum() < 3:
        keep = (infid >= floor) & (infid <= 1e-6)
    if keep.sum() < 3:
        raise ValueError("noise floor reached: too few clean sweep points for a coefficient fit")
    x = grid[keep]
    return _extrapolate(x, infid[keep] / x**degree)


@dataclass(frozen=True, slots=True)
class CrossoverResult:
    """Per-angle leading-error magnitudes for several variants, plus where
    the first two variants swap rank."""

    thetas: np.ndarray
    magnitudes: dict[str, np.ndarray]
    crossover_theta: float | None
    flagged: bool


def _degree3_magnitudes(name: str, thetas) -> np.ndarray:
    """Norms of the degree-3 sigma coefficient of ``name``'s pulse-length
    residual, one per angle of ``thetas``.

    Several angles are composed together: pulse position j of every sequence
    enters the pulse loop as one :class:`_PulseColumn` against the contour,
    and the targets as an (n, 1, 2, 2) stack.  A single angle composes its
    sequence's own pulses, which is faster for one point.
    """
    seqs = [build(name, theta) for theta in thetas]
    if len(seqs) == 1:
        pulses, u = seqs[0].pulses, rotation(seqs[0].target.angle, seqs[0].target.phase)
    else:
        if len({len(seq.pulses) for seq in seqs}) > 1:
            raise ValueError(f"{name} has a different pulse count at different angles of the angle grid")
        # (n, pulses, 2): angle and phase of every pulse
        table = np.array([[(p.angle, p.phase) for p in seq.pulses] for seq in seqs])
        pulses = [_PulseColumn(table[:, j, 0, None], table[:, j, 1, None]) for j in range(table.shape[1])]
        u = np.stack([rotation(seq.target.angle, seq.target.phase) for seq in seqs])[:, None]
    norms = contour_sigma_norms(pulses, u).reshape(len(seqs), 4)
    bad = (norms[:, 1] > 1e-10) | (norms[:, 2] > 1e-10)
    if bad.any():
        raise ValueError(f"{name} is not second-order correct at theta = {thetas[int(np.argmax(bad))]}")
    # a copy, not a view that would keep all of norms alive in the result
    return norms[:, 3].copy()


def crossover_scan(names, thetas) -> CrossoverResult:
    """Third-order error magnitude of second-order pulse-length sequences.

    Evaluates the degree-3 sigma-vector norm of every named variant over the
    angle grid, one batched composition per variant, and locates (by
    bisection, one angle per step) the angle where the first variant's
    magnitude crosses the second's.  A missing sign change is flagged rather
    than guessed.
    """
    names = list(names)
    if len(names) < 2:
        raise ValueError("need at least two variants to compare")
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 1 or thetas.size == 0:
        raise ValueError(f"the angle grid must be a non-empty 1-D array, got shape {thetas.shape}")
    if not np.isfinite(thetas).all():
        raise ValueError("the angle grid must hold finite angles only")
    mags = {name: _degree3_magnitudes(name, thetas) for name in names}

    a, b = names[0], names[1]
    diff = mags[a] - mags[b]
    crossover = None
    flagged = True
    if np.max(np.abs(diff)) < 1e-12:
        # indistinguishable variants: no crossover to report
        return CrossoverResult(thetas, mags, None, True)
    for i in range(len(thetas) - 1):
        if diff[i] * diff[i + 1] < 0.0:
            lo, hi = thetas[i], thetas[i + 1]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                dm = _degree3_magnitudes(a, (mid,))[0] - _degree3_magnitudes(b, (mid,))[0]
                if dm == 0.0:
                    lo = hi = mid
                    break
                if (dm < 0.0) == (diff[i] < 0.0):
                    lo = mid
                else:
                    hi = mid
            crossover, flagged = float(0.5 * (lo + hi)), False
            break
    return CrossoverResult(thetas, mags, crossover, flagged)


def inverse_quality(seq, seq_inv, model_kind: str) -> SweepResult:
    """Order of the residual of seq_inv following seq, against the identity.

    Both sequences are concatenated chronologically and swept under the given
    model, "ple" or "ore"; an exact inverse comes back flagged
    ``beyond_resolution``.
    """
    axis = KIND_AXIS.get(model_kind)
    if axis is None:
        raise ValueError(f"inverse_quality takes model kind 'ple' or 'ore', got {model_kind!r}")
    return estimate_order(tuple(seq) + tuple(seq_inv), axis)


@dataclass(frozen=True, slots=True)
class SurfaceFit:
    """Two-dimensional infidelity table with the fitted leading coefficients."""

    eps_grid: np.ndarray
    f_grid: np.ndarray
    infidelity: np.ndarray  # shape (len(eps_grid), len(f_grid))
    coeff_eps: float
    eps_degree: int
    coeff_f: float
    f_degree: int
    coeff_cross: float  # coefficient of eps^2 f^2


def fidelity_surface(
    seq,
    eps_grid=None,
    f_grid=None,
    eps_degree: int = 6,
    f_degree: int = 4,
) -> SurfaceFit:
    """Infidelity over a 2-D error grid plus leading-coefficient fits.

    The two axis coefficients come from 1-D fits along the grid edges; the
    eps^2 f^2 cross coefficient is fitted on the diagonal after subtracting
    both axis contributions, with eps^2 f^4 and eps^4 f^2 nuisance terms
    absorbed by least squares.
    """
    target = _target(seq)
    eps_grid = geometric_grid(3e-3, 3e-2, 7) if eps_grid is None else np.asarray(eps_grid, dtype=float)
    f_grid = geometric_grid(3e-3, 3e-2, 7) if f_grid is None else np.asarray(f_grid, dtype=float)

    surface = infidelity_grid(seq, SIMULTANEOUS, eps_grid[:, None], f_grid[None, :], target)

    coeff_eps = fit_leading_coefficient(seq, "eps", eps_degree)
    coeff_f = fit_leading_coefficient(seq, "f", f_degree)

    # Averaging the diagonal cross term over +eps and -eps removes the
    # odd-in-eps piece (an eps f^3 term shares total degree 4 with eps^2 f^2),
    # leaving c22 x^4 plus odd-in-f and even corrections handled by the basis.
    xs = np.geomspace(2e-3, 2e-2, 9)
    signed = np.array([xs, -xs])
    total = infidelity_grid(seq, SIMULTANEOUS, signed, xs, target)
    only_e = infidelity_grid(seq, SIMULTANEOUS, signed, 0.0, target)
    only_f = infidelity_grid(seq, SIMULTANEOUS, 0.0, xs, target)
    cross = (total - only_e - only_f).sum(axis=0) / 2.0
    keep = np.abs(cross) > 1e-15
    if keep.sum() < 3:
        raise ValueError("noise floor reached: cross term not resolvable on this grid")
    xs = xs[keep]
    coeff_cross = _extrapolate(xs, cross[keep] / xs**4)

    return SurfaceFit(
        eps_grid,
        f_grid,
        surface,
        float(coeff_eps),
        eps_degree,
        float(coeff_f),
        f_degree,
        coeff_cross,
    )
