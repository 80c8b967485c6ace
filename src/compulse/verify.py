"""Independent numeric checks of the series engine's order and coefficient claims.

Nothing here touches the power-series code path: sequences are composed in
plain float64, W's first column only, through
:func:`compulse.su2.residual_columns`.  Error orders are read off log-log
slopes of infidelity sweeps over geometric grids, and every sweep along one
error axis goes through :func:`axis_sweep`, which maps the axis to its error
model (the inverse of ``pulse.KIND_AXIS``), takes the sequence's own target
or the identity for a bare pulse list, and checks and sorts the grid.  The
infidelity is taken from the Pauli (sigma) part of the residual unitary
rather than from 1 - |Tr/2|, so it carries no cancellation floor and needs
no extended precision or BLAS call.  Taylor coefficients of the same
residual, read by Cauchy sums on contours of complex fractions, give every
leading infidelity coefficient (:func:`_infidelity_coefficients`) and the
degree-3 magnitudes of :func:`crossover_scan`
(:func:`compulse.su2.contour_sigma_norms`).  W's second column is read off
the first: by its SU(2) form at real fractions, and on contours as the
conjugates of the first column's Taylor coefficients.  The whole angle grid
of one variant of a scan is a single batched composition.  The bisection
for the crossover then composes one angle per step, but only for the steps
whose side is not yet decided: a capped regula falsi pre-pass brackets the
root between angles whose difference lies beyond the read-out's rounding
floor, and a midpoint outside that bracket takes the side its position
implies.  Agreement between the two routes is what certifies a sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .sequences import build
from .su2 import (CONTOUR_EPS, CONTOUR_POINTS, CONTOUR_RADIUS, KIND_AXIS, SIMULTANEOUS, Pulse,
                  contour_sigma_norms, residual_columns, rotation, taylor_coefficients)

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


#: ((angle, phase) key, U) of the most recent target; see _target_matrix
_last_target = None


def _target_matrix(target: Pulse) -> np.ndarray:
    """U of the ideal rotation ``target``, kept for the most recent target.

    ``PulseSequence.target`` makes a new Pulse on every access, so the entry
    is keyed by the target's angle and phase, a zero by its ``repr``: -0.0
    gives other signs of zeros than 0.0.  It is rebound in one assignment and
    its matrix refuses writes, so threads that race on it at worst build the
    same matrix twice.
    """
    global _last_target
    angle, phase = target.angle, target.phase
    key = (angle if angle else repr(angle), phase if phase else repr(phase))
    entry = _last_target
    if entry is not None and entry[0] == key:
        return entry[1]
    u = rotation(angle, phase)
    u.setflags(write=False)
    _last_target = (key, u)
    return u


def infidelity_grid(pulses, kind: str, eps, f, target: Pulse) -> np.ndarray:
    """1 - |Tr(V U^dag)|/2 at every point of the broadcast grid of (eps, f).

    The fractions must be real.  With W = V U^dag = a0 I + a.sigma, the
    infidelity is evaluated as |a|^2 / (1 + |a0|), which equals 1 - |a0| for
    unitary W but involves no cancellation, so float64 resolves it far below
    1e-16.  Only W's first column is composed, by
    :func:`~compulse.su2.residual_columns`: at real fractions w11 =
    conj(w00) and w01 = -conj(w10), so a0 = Re(w00) and |a|^2 = Im(w00)^2 +
    |w10|^2, with the bits the full matrix gives.  U comes from
    :func:`_target_matrix`, so a sweep point by point builds it once.  At a
    scalar point the entries are Python complex numbers, whose builtin
    ``abs`` is libm's ``hypot``, and the result is still a numpy float.
    """
    w00, w10 = residual_columns(pulses, kind, eps, f, _target_matrix(target))
    az, r10 = w00.imag, abs(w10)
    return np.divide(az * az + r10 * r10, 1.0 + abs(w00.real))


def infidelity_ld(pulses, kind: str, eps, f, target: Pulse) -> float:
    """Scalar form of :func:`infidelity_grid` at one (eps, f) point.

    The name dates from an extended-precision implementation.  It is not
    exported by the package; it is kept because the benchmark calls and
    traces it by name.
    """
    return float(infidelity_grid(pulses, kind, eps, f, target))


def _checked_grid(values, what: str, nonnegative: bool = False) -> np.ndarray:
    """``values`` as a float array, refused with a ValueError naming ``what``
    unless it is 1-D, non-empty and finite (and >= 0 when ``nonnegative``)."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"the {what} must be a non-empty 1-D array, got shape {grid.shape}")
    ok = np.isfinite(grid)
    if nonnegative:
        ok &= grid >= 0.0
    if not ok.all():
        raise ValueError(f"the {what} must hold finite{', nonnegative' if nonnegative else ''} values only")
    return grid


def _target(seq) -> Pulse:
    """The sequence's own target, or the identity for a bare pulse list."""
    return getattr(seq, "target", Pulse(0.0, 0.0))


def axis_sweep(seq, axis: str, grid=None) -> tuple[np.ndarray, np.ndarray]:
    """Grid and infidelities of a sweep along one error axis ("eps" or "f").

    ``grid`` defaults to :func:`geometric_grid`.  It must be 1-D, non-empty,
    finite and nonnegative, and it comes back sorted ascending, which the
    slope fit relies on.
    """
    kind = _axis_kind(axis)
    grid = geometric_grid() if grid is None else np.sort(_checked_grid(grid, "sweep grid", nonnegative=True))
    eps, f = (grid, 0.0) if axis == "eps" else (0.0, grid)
    return grid, infidelity_grid(seq, kind, eps, f, _target(seq))


def _axis_kind(axis: str) -> str:
    """The error model kind of the error axis ``axis``; an unknown axis is refused."""
    if axis not in _AXIS_KIND:
        raise ValueError(f"unknown sweep axis {axis!r}; expected 'eps' or 'f'")
    return _AXIS_KIND[axis]


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
    checked and sorted by :func:`axis_sweep`, and the line is fitted by
    :func:`_line_fit`.
    """
    grid, infid = axis_sweep(seq, axis, grid)
    lo, hi = FIT_WINDOW
    keep = (infid >= lo) & (infid <= hi)
    if keep.sum() < 3:
        beyond = bool((infid < lo).all())
        return SweepResult(grid, infid, None, None, None, not beyond, beyond, None, int(keep.sum()))
    x_all = np.log(grid[keep])
    y_all = np.log(infid[keep])

    def fit(stop: int) -> SweepResult:
        x, y = x_all[:stop], y_all[:stop]
        slope, intercept = _line_fit(x, y)
        resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
        n = round(slope / 2.0)
        ambiguous = abs(slope / 2.0 - n) >= 0.1 or n < 1
        return SweepResult(grid, infid, float(slope), float(intercept), None if ambiguous else int(n),
                           ambiguous, False, resid, stop)

    # The slope approaches 2n only as x -> 0; when the next-order coefficient
    # is much larger than the leading one, the top of the clean window still
    # bends the fit.  Trim from the large-x end until slope/2 locks onto an
    # integer, keeping at least 4 points; report the full-window fit if it
    # never does.
    full = fit(len(x_all))
    if not full.ambiguous:
        return full
    trimmed = (fit(stop) for stop in range(len(x_all) - 1, 3, -1))
    return next((r for r in trimmed if not r.ambiguous), full)


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Slope and intercept of the least-squares line through the points (x, y).

    The closed form about the means, slope = sum dx dy / sum dx^2, with
    every sum taken by ``math.fsum``, which rounds once whatever the order:
    no LAPACK call (``np.polyfit`` makes one), so the fit does not depend on
    the BLAS kernel or on the Python version.
    """
    xs, ys = x.tolist(), y.tolist()
    x_mean, y_mean = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dx = [v - x_mean for v in xs]
    slope = math.fsum(d * (v - y_mean) for d, v in zip(dx, ys)) / math.fsum(d * d for d in dx)
    return slope, y_mean - slope * x_mean


def fit_leading_coefficient(seq, axis: str, degree: int) -> float:
    """c in infidelity = c x^degree + ... along ``axis``, read off a contour.

    ``degree``, the axis's 2 * order (see :func:`estimate_order`), must be
    an int in 1..``CONTOUR_POINTS`` - 1, where aliasing starts; it is
    checked before W is composed, once, under the axis's model on the circle
    ``CONTOUR_EPS`` (:func:`_infidelity_coefficients`).  A c within the floor
    ((pulses + pi degree) eps_mach max|W| + |c_0|) / r^degree is refused:
    a rounding per matrix-vector step, the Cauchy matrix's rounded phases 2
    pi j k / N (pi k eps_mach over the nodes), and the read degree-0
    infidelity c_0, zero at the target but for the aliasing A_N r^N.  Exact
    identities (x1 then x1inv, sk2 at 720 degrees, z2 then z2prime, 8-32
    random pulses then their inverse) read 8.9-17x under it at degrees
    1..31, below-order degrees 1.5x or more (or-second-xz, f, degree 1), and
    catalog coefficients at 180, 37, 123 and 720 degrees 9e7x or more above.
    """
    kind = _axis_kind(axis)
    if not isinstance(degree, int) or not 1 <= degree < CONTOUR_POINTS:
        raise ValueError(f"degree must be an int in 1..{CONTOUR_POINTS - 1}, got {degree!r}")
    eps, f = (CONTOUR_EPS, 0.0) if axis == "eps" else (0.0, CONTOUR_EPS)
    coeffs, w_max = _infidelity_coefficients(seq, kind, eps, f, degree)
    rounding = (len(seq) + math.pi * degree) * float(np.finfo(float).eps) * w_max
    floor = (rounding + abs(1.0 + coeffs[0])) / CONTOUR_RADIUS**degree
    if not abs(coeffs[degree]) > floor:
        raise ValueError(f"noise floor reached: the degree-{degree} coefficient reads {coeffs[degree]:.3g}, "
                         f"within the contour read-out's floor {floor:.3g}")
    return float(coeffs[degree])


def _infidelity_coefficients(seq, kind: str, eps, f, degree: int) -> tuple[np.ndarray, float]:
    """Taylor coefficients c to ``degree`` of the infidelity of ``seq``
    under ``kind``, and max|W| on the contour.

    ``eps`` and ``f`` are each 0.0 or ``CONTOUR_EPS`` along a grid axis: a
    circle gives c[k] of x^k, the torus ``CONTOUR_EPS[:, None]`` x
    ``CONTOUR_EPS[None, :]`` c[i, j] of eps^i f^j.  At real fractions the
    infidelity is 1 - s a0, a0 = (w00 + w11) / 2 with s its sign at zero
    error, and w11(eps, f) = conj(w00(conj(eps), conj(f))): a0's
    coefficients are the real parts of w00's, one Cauchy sum per contour
    axis, s is the sign of Re(w00)'s mean, and c is -s times them (c[0] + 1
    the degree-0 term).  The eps^2 f^2 term of random pulse lists is 1e-13
    off at 20 pulses, 7e-3 at 64 (``CONTOUR_RADIUS`` is fixed).
    """
    w00, w10 = residual_columns(seq, kind, eps, f, _target_matrix(_target(seq)))
    coeffs = w00
    for _ in range(w00.ndim):
        coeffs = np.moveaxis(taylor_coefficients(coeffs, degree), -1, 0)
    return -np.sign(w00.mean().real) * coeffs.real, float(max(np.abs(w00).max(), np.abs(w10).max()))


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
    sequence's own pulses, which is faster for one point, against the U of
    :func:`_target_matrix`, which the two variants of a bisection step share.
    """
    seqs = [build(name, theta) for theta in thetas]
    if len(seqs) == 1:
        pulses, u = seqs[0].pulses, _target_matrix(seqs[0].target)
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
        theta = thetas[int(np.argmax(bad))]
        raise ValueError(f"{name} is not second-order correct at theta = {theta} rad "
                         f"({np.degrees(theta):.6g} degrees)")
    # a copy, not a view that would keep all of norms alive in the result
    return norms[:, 3].copy()


def crossover_scan(names, thetas) -> CrossoverResult:
    """Third-order error magnitude of second-order pulse-length sequences.

    Evaluates the degree-3 sigma-vector norm of every named variant over the
    angle grid, one batched composition per variant, and locates the angle
    where the first variant's magnitude crosses the second's by bisecting
    the first grid cell whose ends differ in sign.  A missing sign change is
    flagged rather than guessed.

    The bisection composes one angle per step, but only where the sign of
    the difference is not yet decided: a short regula falsi pre-pass
    (:func:`_decided_bracket`) finds angles L and H inside the cell whose
    differences lie beyond the contour's rounding floor, and a midpoint
    outside (L, H) takes the side its position implies without a
    composition.  Every midpoint inside (L, H) is composed, so the crossover
    has the same bits as a bisection that composes every step, as long as
    the difference keeps its sign between each cell end and the decided
    angle on its side, which holds when the cell holds one root.
    """
    names = list(names)
    if len(names) < 2:
        raise ValueError("need at least two variants to compare")
    thetas = _checked_grid(thetas, "angle grid")
    mags = {name: _degree3_magnitudes(name, thetas) for name in names}

    diff = mags[names[0]] - mags[names[1]]
    if np.max(np.abs(diff)) < 1e-12:
        # indistinguishable variants: no crossover to report
        return CrossoverResult(thetas, mags, None, True)
    for i in range(len(thetas) - 1):
        if diff[i] * diff[i + 1] < 0.0:
            crossover = _bisect(names[0], names[1], thetas[i], thetas[i + 1], diff[i], diff[i + 1])
            return CrossoverResult(thetas, mags, crossover, False)
    return CrossoverResult(thetas, mags, None, True)


def _bisect(a: str, b: str, lo: float, hi: float, d_lo: float, d_hi: float) -> float:
    """Angle in the grid cell from ``lo`` to ``hi`` where the degree-3
    magnitude of ``a`` minus that of ``b`` changes sign; ``d_lo`` and
    ``d_hi`` are that difference at the cell ends, of opposite signs.

    A step's difference is composed at that one angle only when its midpoint
    lies inside the bracket (L, H) that :func:`_decided_bracket` leaves
    undecided.
    """

    def difference(theta: float) -> float:
        return _degree3_magnitudes(a, (theta,))[0] - _degree3_magnitudes(b, (theta,))[0]

    (l, d_l), (h, d_h) = _decided_bracket(difference, (lo, d_lo), (hi, d_hi), _rounding_floor(a, b, lo))
    up = hi > lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        # L and H are oriented by value: on a descending grid lo lies above hi
        if (mid < l) if up else (mid > l):
            dm = d_l
        elif (mid > h) if up else (mid < h):
            dm = d_h
        else:
            dm = difference(mid)
        if dm == 0.0:
            lo = hi = mid
            break
        if (dm < 0.0) == (d_lo < 0.0):
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))


def _rounding_floor(a: str, b: str, theta: float) -> float:
    """Largest rounding error expected in the one-angle difference of the
    degree-3 magnitudes of ``a`` and ``b`` near ``theta``.

    :func:`~compulse.su2.taylor_coefficients` bounds the rounding of a
    degree-3 coefficient by eps_mach max|W| / r^3 on the contour of radius
    r = ``CONTOUR_RADIUS``.  W is the identity up to terms of degree 3 in
    eps (a variant is refused otherwise), so max|W| is taken as 1; it is
    1.004 for bb1 and 1.06 for sk2rot at their crossover.  The stated factor
    is the pulse count, one rounding per matrix-vector step of the
    composition (each pulse takes one step on W's first column, which starts
    as that of U^dag; the second column's coefficients are the first's
    conjugated), summed over both variants.  For bb1 against sk2rot that is 21, a floor
    of 5.8e-13, where the difference's noise about a straight line is at
    most 3.9e-14 over 401 angles within 2e-12 rad of the crossover, 15 times
    below the floor.
    """
    pulses = len(build(a, theta).pulses) + len(build(b, theta).pulses)
    return pulses * float(np.finfo(float).eps) / CONTOUR_RADIUS**3


def _decided_bracket(difference, lo: tuple[float, float], hi: tuple[float, float], floor: float):
    """Innermost (angle, difference) pairs (L, H) on the ``lo`` and ``hi``
    sides of the root whose computed difference has the sign of that cell
    end and lies beyond ``floor``; a cell end stands for its side until an
    evaluated angle replaces it.

    Regula falsi with the Illinois modification (Dowell & Jarratt, BIT 11,
    168, 1971) runs at most 8 steps from the cell ends, each one
    composition.  Once a step lands within the floor of zero, two probes at
    that root estimate plus and minus 3 floors (over the secant slope)
    tighten the bracket.  If the steps never get there, the cell ends come
    back and the bisection composes every step.
    """
    ends = [lo, hi]
    (x0, f0), (x1, f1) = lo, hi  # Illinois bracket: f0 and f1 may be halved
    last = None
    for _ in range(8):
        x = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not min(x0, x1) < x < max(x0, x1):
            return ends  # the bracket is down to adjacent floats
        fx = difference(x)
        if not abs(fx) > floor:
            break
        side = int((fx < 0.0) != (lo[1] < 0.0))
        ends[side] = (x, fx)
        if side == 0:
            x0, f0 = x, fx
            f1 = f1 / 2.0 if last == 0 else f1
        else:
            x1, f1 = x, fx
            f0 = f0 / 2.0 if last == 1 else f0
        last = side
    else:
        return [lo, hi]
    (l, d_l), (h, d_h) = ends
    step = 3.0 * floor * (h - l) / (d_h - d_l)
    for probe in (x - step, x + step):
        (l, _), (h, _) = ends
        if min(l, h) < probe < max(l, h):
            value = difference(probe)
            if abs(value) > floor:
                ends[int((value < 0.0) != (lo[1] < 0.0))] = (probe, value)
    return ends


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
    """Two-dimensional infidelity table with the leading coefficients.

    ``eps_degree`` and ``f_degree`` are 2 * the order :func:`estimate_order`
    reads along each axis.  ``coeff_eps``, ``coeff_f`` and ``coeff_cross``, of
    eps^eps_degree, f^f_degree and eps^2 f^2, are read off one torus.
    """

    eps_grid: np.ndarray
    f_grid: np.ndarray
    infidelity: np.ndarray  # shape (len(eps_grid), len(f_grid))
    coeff_eps: float
    eps_degree: int
    coeff_f: float
    f_degree: int
    coeff_cross: float  # coefficient of eps^2 f^2


def _torus_coefficients(seq, eps_degree: int, f_degree: int) -> tuple[float, float, float]:
    """The infidelity's eps^eps_degree, f^f_degree and eps^2 f^2 coefficients, read off
    one "sim" torus (:func:`_infidelity_coefficients`); "sim" is "ple" at f = 0, "ore" at eps = 0."""
    coeffs, _ = _infidelity_coefficients(seq, SIMULTANEOUS, CONTOUR_EPS[:, None], CONTOUR_EPS[None, :],
                                         max(eps_degree, f_degree, 2))
    return float(coeffs[eps_degree, 0]), float(coeffs[0, f_degree]), float(coeffs[2, 2])


def fidelity_surface(seq, eps_grid=None, f_grid=None) -> SurfaceFit:
    """Infidelity over a 2-D error grid plus its leading coefficients.

    ``eps_grid`` and ``f_grid`` set only the returned table; they must be
    1-D, non-empty and finite, and unlike a 1-D sweep they may hold signed
    fractions.  Each axis's degree is 2 * the order that one
    :func:`estimate_order` sweep on the default grid reads, whatever the
    table's grids are; an axis with no clean order raises ValueError.  The
    coefficients are read off one torus (:func:`_torus_coefficients`).
    """
    eps_grid = geometric_grid(3e-3, 3e-2, 7) if eps_grid is None else _checked_grid(eps_grid, "eps grid")
    f_grid = geometric_grid(3e-3, 3e-2, 7) if f_grid is None else _checked_grid(f_grid, "f grid")
    surface = infidelity_grid(seq, SIMULTANEOUS, eps_grid[:, None], f_grid[None, :], _target(seq))

    degrees = []
    for axis in ("eps", "f"):
        sweep = estimate_order(seq, axis)
        if sweep.order is None:
            reason = "beyond resolution" if sweep.beyond_resolution else "ambiguous"
            raise ValueError(f"no clean error order along {axis} ({reason}): no leading coefficient to fit")
        degrees.append(2 * sweep.order)
    coeff_eps, coeff_f, coeff_cross = _torus_coefficients(seq, *degrees)
    return SurfaceFit(eps_grid, f_grid, surface, coeff_eps, degrees[0], coeff_f, degrees[1], coeff_cross)
