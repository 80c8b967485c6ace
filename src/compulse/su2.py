"""Exact 2x2 unitary algebra for single-qubit rotations with systematic errors.

Rotations about axes in the xy plane are the elementary operations.  Two error
channels are modelled: a fractional miscalibration of every rotation angle
(pulse length error, fraction ``epsilon``) and a constant detuning of the
drive relative to its strength (off-resonance error, fraction ``f``), which
tilts every rotation axis toward z.  Both may act at once.  A pulse keeps
its angle as given, sign included: the ideal and pulse-length propagators
take a signed angle, while the off-resonance ones are defined for
nonnegative angles only, so the ``ore`` and ``sim`` models refuse a pulse
with a negative angle.  The value types :class:`Pulse` and
:class:`ErrorModel` and the error-model vocabulary come from ``pulse``,
which loads no numpy; this module re-exports them unchanged.

The residual W = V U^dag of a sequence is analytic in the error fractions,
so Cauchy sums at complex fractions read its Taylor coefficients:
:func:`contour_sigma_norms` those of its sigma part in eps on a circle, for
the phase solver in ``sequences`` and the crossover scan in ``verify``, and
``verify`` the eps^2 f^2 fidelity term on a torus in (eps, f), neither with
the series engine.  Every composition, real fractions, complex ones and
:func:`compose` alike, goes through one kernel, :func:`_columns`: W's first
column takes one matrix-vector step per pulse, written out on the entries
of the pulse matrices.  The second column is read off the first: by SU(2)
symmetry at real fractions (w11 = conj(w00), w01 = -conj(w10)), and on
contours as the conjugates of the first column's Taylor coefficients.  Only
:func:`compose`, which may be handed complex fractions off any contour,
steps both columns.  No ``@`` multiplies pulse matrices, so no BLAS kernel
enters the bits of W.

The pulse loop behind :func:`residual_columns` splits each propagator into
an angle part (the modulus, cosine and sine) and a phase part.  Composite
sequences repeat a few angles at many phases, so the angle part is evaluated
once per distinct angle and shared by every pulse of that angle.  The phase
parts of a batch of consecutive pulses are built in one step, as one stack
with a leading pulse axis; a batch covers about ``_BATCH_POINTS`` grid
points, so a scalar point builds its whole sequence at once and a large grid
goes pulse by pulse.  Each matrix is still the one a lone pulse gives, bit
for bit, and W does not depend on the batching.  A scalar point and the same
point inside a grid agree within rounding, not bit for bit: a scalar point
steps on Python complex numbers, whose product is not fused and equals
numpy's scalar product bit for bit, while a grid steps on arrays, whose SIMD
complex product may be fused.  What the loop reads of the pulse list alone
(the distinct angles, each pulse's place among them, the cosine and sine of
every phase, whether any angle is negative) is its plan, and the plan of the
most recent tuple of :class:`Pulse` is kept, keyed by the tuple's identity,
so a sweep that passes one tuple point by point plans it once.  Lists are
planned on every call, since they may change between calls.

All matrices are plain complex numpy arrays, and the small value types are
frozen dataclasses.  Every function is pure except for that one kept plan,
which is rebound in a single assignment and holds arrays that refuse
writes, so threads that race on it at worst plan the same tuple twice;
everything is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# su2's own names as well: su2.Pulse is pulse.Pulse, and so on
from .pulse import (KIND_AXIS, MODEL_KINDS, OFF_RESONANCE, PULSE_LENGTH, SIMULTANEOUS, TWO_PI, ErrorModel, Pulse,
                    kind_of, negative_angle_error)

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: contour for Taylor coefficients in eps: N nodes on the circle |eps| = r
CONTOUR_POINTS, CONTOUR_RADIUS = 32, 0.2


@lru_cache(maxsize=None)
def _contour(points: int) -> tuple[np.ndarray, np.ndarray]:
    """The N nodes r e^(2 pi i j/N) and the (N, 4) Cauchy matrix to degrees 0..3."""
    j = np.arange(points)
    cauchy = np.exp(-2j * np.pi * np.outer(j, np.arange(4)) / points) / (points * CONTOUR_RADIUS ** np.arange(4))
    return CONTOUR_RADIUS * np.exp(2j * np.pi * j / points), cauchy


CONTOUR_EPS = _contour(CONTOUR_POINTS)[0]

#: grid points (pulses times points per pulse) whose phase parts the pulse loop builds in one step
_BATCH_POINTS = 1024


@dataclass(frozen=True)
class PauliDecomposition:
    """Coefficients of M = c0*I + cx*sigma_x + cy*sigma_y + cz*sigma_z."""

    c0: complex
    cx: complex
    cy: complex
    cz: complex

    def reconstruct(self) -> np.ndarray:
        return (
            self.c0 * IDENTITY
            + self.cx * SIGMA_X
            + self.cy * SIGMA_Y
            + self.cz * SIGMA_Z
        )


def _modulus(w, f):
    """m = |(w, f)|, continued to complex arguments as sqrt(w^2 + f^2)."""
    try:
        return np.hypot(w, f)
    except TypeError:  # hypot refuses complex input
        return np.sqrt(w * w + f * f)


def _angle_part(theta, m, f) -> tuple:
    """c = cos(theta m / 2), s = sin(theta m / 2) / m and s f: the factors of
    :func:`_axis_angle` that do not depend on the phase."""
    a = theta * m / 2.0
    c = np.cos(a)
    s = np.sin(a) / m
    return c, s, s * f


def _phase_trig(phi) -> tuple:
    """cos(phi) and sin(phi): ``math`` for a float phase, numpy for an array."""
    if isinstance(phi, np.ndarray):
        return np.cos(phi), np.sin(phi)
    return math.cos(phi), math.sin(phi)


def _phase_part(c, s, sz, cos_phi, sin_phi, w) -> np.ndarray:
    """The rotation with angle part (c, s, s f) about the axis of phase phi,
    given cos(phi) and sin(phi)."""
    sx = s * (w * cos_phi)
    sy = s * (w * sin_phi)
    isx, isz = 1j * sx, 1j * sz
    # sx carries the broadcast shape of every argument; each entry is written
    # in place, without a temporary
    out = np.empty(np.shape(sx) + (2, 2), dtype=complex)
    np.subtract(c, isz, out=out[..., 0, 0])
    np.subtract(-sy, isx, out=out[..., 0, 1])
    np.subtract(sy, isx, out=out[..., 1, 0])
    np.add(c, isz, out=out[..., 1, 1])
    return out


def _axis_angle(theta, phi, w, f) -> np.ndarray:
    """exp[-i theta (w (sigma_x cos(phi) + sigma_y sin(phi)) + f sigma_z) / 2].

    The closed form is c I - i s (w cos(phi) sigma_x + w sin(phi) sigma_y +
    f sigma_z) with m = |(w, f)|, c = cos(theta m / 2), s = sin(theta m / 2) / m.
    ``theta``, ``phi``, ``w`` and ``f`` may be arrays; the result has their
    broadcast shape followed by (2, 2).  A float phase keeps ``math.cos`` and
    ``math.sin``; an array phase takes their numpy forms.

    Complex arguments continue the form analytically, with m = sqrt(w^2 +
    f^2); the branch of the root does not matter, because c and s are even
    in m.  That is what lets contour integrals in the error fraction read off
    Taylor coefficients.
    """
    return _phase_part(*_angle_part(theta, _modulus(w, f), f), *_phase_trig(phi), w)


def rotation(theta: float, phi: float) -> np.ndarray:
    """Ideal rotation exp[-i theta (sigma_x cos(phi) + sigma_y sin(phi)) / 2].

    ``theta`` (radians) may be negative; ``phi`` is the azimuth of the
    rotation axis in the xy plane.  The result is a 2x2 special unitary.
    """
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError(f"rotation arguments must be finite, got ({theta}, {phi})")
    return _axis_angle(theta, phi, 1.0, 0.0)


class _Plan(NamedTuple):
    """What the pulse loop reads of a pulse list, whatever the error fractions."""

    angles: np.ndarray  # distinct pulse angles, in order of first use, along a leading axis
    index: np.ndarray  # position in ``angles`` of every pulse's angle
    trig: np.ndarray  # cos and sin of every pulse's phase, (2, pulses) + the phase shape
    negative: bool  # whether any pulse angle is negative


#: (pulse tuple, its plan) for the most recent tuple of Pulse; see _plan
_last_plan = None


def _plan(pulses) -> _Plan:
    """The :class:`_Plan` of ``pulses``.

    A pulse's angle is keyed by its value, or by its bytes when it is an
    array column of several sequences.  The plan of the most recent tuple of
    :class:`Pulse` is kept, keyed by the tuple's identity, which the entry's
    reference keeps from being reused; such a tuple cannot change.  Any other
    iterable, a list above all, is planned afresh on every call.  The entry
    is rebound in one assignment and its arrays refuse writes, so threads
    that race on it at worst plan the same tuple twice.
    """
    global _last_plan
    entry = _last_plan
    if entry is not None and entry[0] is pulses:
        return entry[1]
    keys, angles, index, cos_phi, sin_phi = {}, [], [], [], []
    for pulse in pulses:
        angle = pulse.angle
        if isinstance(angle, np.ndarray):
            key = angle.tobytes()
        else:
            # 0.0 == -0.0 as keys, but their matrices differ in the signs of zeros
            key = angle if angle else repr(angle)
        at = keys.get(key)
        if at is None:
            at = keys[key] = len(angles)
            angles.append(angle)
        index.append(at)
        c, s = _phase_trig(pulse.phase)
        cos_phi.append(c)
        sin_phi.append(s)
    angles = np.array(angles, dtype=float)
    plan = _Plan(angles, np.array(index, dtype=np.intp), np.array((cos_phi, sin_phi)), bool((angles < 0.0).any()))
    for array in plan[:3]:
        array.setflags(write=False)
    if type(pulses) is tuple and all(isinstance(pulse, Pulse) for pulse in pulses):
        _last_plan = (pulses, plan)
    return plan


def _pulse_matrices(pulses, kind: str, eps, f):
    """Propagators of ``pulses`` under error model ``kind`` at fractions (eps, f),
    in order, as stacks of consecutive pulses.

    Everything that depends only on the pulse list comes from its
    :func:`_plan`: the distinct angles, which of them each pulse has, the
    cosine and sine of every phase and whether any angle is negative.  A call
    computes w, f and m = |(w, f)| once, and the angle part of
    :func:`_axis_angle` once per distinct angle, for all of them in one step
    along an axis ahead of the grid's: composite sequences repeat a few
    angles at many phases.

    Each yielded batch is one stack of shape (pulses,) + grid + (2, 2): the
    batch's angle parts are stacked along a leading pulse axis, and one
    :func:`_phase_part` call makes all their matrices.  A batch holds
    ``max(1, _BATCH_POINTS // grid points)`` pulses, so a scalar point or a
    contour builds a whole sequence in one step, while a large grid goes one
    pulse at a time and its stacks stay small.  Each matrix equals the one
    :func:`_axis_angle` gives for that pulse alone, bit for bit, unless a
    fraction is a complex scalar: numpy may round a product of complex
    scalars otherwise than the same product inside an array.
    """
    if kind_of(kind) == PULSE_LENGTH:
        stretch, w, f = 1.0 + eps, 1.0, 0.0
    else:
        stretch, w = None, (1.0 + eps if kind == SIMULTANEOUS else 1.0)
    plan = _plan(pulses)
    if stretch is None and plan.negative:
        raise negative_angle_error()
    if not len(plan.index):
        return
    m = _modulus(w, f)
    # the distinct angles' axis goes ahead of the grid's axes
    grid = m if stretch is None else stretch
    angles = plan.angles
    pad = np.ndim(grid) - (angles.ndim - 1)
    if pad > 0:
        angles = angles.reshape(angles.shape[:1] + (1,) * pad + angles.shape[1:])
    parts = _angle_part(angles if stretch is None else angles * stretch, m, f)
    size = max(1, _BATCH_POINTS // max(parts[0][0].size, 1))
    for start in range(0, len(plan.index), size):
        at = plan.index[start:start + size]
        c, s, sz = (part[at] for part in parts)
        cos_phi, sin_phi = plan.trig[:, start:start + size]
        # float phases give one value per pulse: align it with the pulse axis of c
        lead = cos_phi.shape + (1,) * (c.ndim - cos_phi.ndim)
        yield _phase_part(c, s, sz, cos_phi.reshape(lead), sin_phi.reshape(lead), w)


def pulse_matrix(pulse: Pulse, kind: str, eps, f) -> np.ndarray:
    """Propagator of one pulse under error model ``kind`` at fractions (eps, f).

    ``eps`` and ``f`` may be arrays, giving one 2x2 matrix per grid point,
    and may be complex (see :func:`_axis_angle`); the fraction a model does
    not carry is ignored.  An unknown ``kind`` raises ``ValueError``.
    """
    # a list is never kept, so a lone pulse does not displace a sweep's kept plan
    return next(_pulse_matrices([pulse], kind, eps, f))[0]


def propagator(pulse: Pulse, model: ErrorModel) -> np.ndarray:
    """Erroneous propagator of a single pulse under the given error model.

    Pulse length errors scale the rotation angle by (1 + epsilon).  An
    off-resonance fraction f adds f*sigma_z to the generator, tilting the
    rotation axis; with both errors present the transverse part of the
    generator is additionally scaled by (1 + epsilon).  With all error
    fractions zero this reduces exactly to :func:`rotation`.
    """
    return pulse_matrix(pulse, model.kind, model.epsilon, model.f)


def compose(pulses, model: ErrorModel) -> np.ndarray:
    """Propagator of a pulse sequence, first pulse applied first.

    ``pulses`` is any iterable of :class:`Pulse` in chronological order (a
    :class:`~compulse.sequences.PulseSequence` works directly).  The result
    is the matrix product with the chronologically first pulse as the
    rightmost factor, composed from one :func:`propagator` call per pulse.
    The fractions may be complex, where no symmetry gives one column from
    the other, so :func:`_columns` steps each column of I through the same
    matrices: the first column has the bits of :func:`residual_columns` at
    U = I, and the second starts from U^dag = sigma_x, whose first column is
    I's second.
    """
    matrices = [propagator(p, model)[None] for p in pulses]
    (w00, w10), (w01, w11) = (_columns(matrices, u) for u in (IDENTITY, SIGMA_X))
    return np.stack((w00, w01, w10, w11), axis=-1).reshape(np.shape(w00) + (2, 2))


def taylor_coefficients(values: np.ndarray) -> np.ndarray:
    """Taylor coefficients of degree 0..3 of a function analytic in eps.

    ``values`` holds the function at the N nodes of the contour along its
    last axis (``CONTOUR_EPS`` for the default N); the result replaces that
    axis by the four coefficients.  Each is the discrete Cauchy integral
    A_k = sum_j a_j e^(-2 pi i j k / N) / (N r^k).  Its aliasing error is
    A_(k+N) r^N + A_(k+2N) r^(2N) + ..., and its rounding error is about
    eps_mach max|a| / r^k.
    """
    return values @ _contour(values.shape[-1])[1]


def residual_columns(pulses, kind: str, eps, f, u: np.ndarray) -> tuple:
    """Entries (w00, w10) of the first column of W = V U^dag at every point
    of the broadcast grid of (eps, f).

    V is the sequence composed under error model ``kind``; a pulse is
    anything with the fields :func:`pulse_matrix` reads, which under "ple"
    are ``angle`` and ``phase`` only, so they may be columns of several
    sequences.  U is the ideal target matrix, or a stack of them that
    broadcasts against V; each entry has the broadcast shape, and is a
    Python complex number at a scalar point and a single U.  The pulse
    matrices come from :func:`_pulse_matrices` and are composed by
    :func:`_columns`, so W does not depend on the batching.  An empty pulse
    list raises ValueError.

    The second column follows from the first.  At real fractions every
    pulse matrix and U^dag have the form [[a, -conj(b)], [b, conj(a)]], and
    so does W: w11 = conj(w00) and w01 = -conj(w10), exactly, since
    :func:`_phase_part` builds its entries that way and conjugation commutes
    with rounding.  Continued to complex fractions, w11(eps, f) =
    conj(w00(conj(eps), conj(f))): on a contour, whose nodes are closed under
    conjugation, that is w00 at the mirrored node conjugated, and the Taylor
    coefficients of w11 (-w01) are those of w00 (w10) conjugated.
    """
    return _columns(_pulse_matrices(pulses, kind, eps, f), u)


def _columns(batches, u: np.ndarray) -> tuple:
    """Entries (w00, w10) of the first column of the product of the pulse
    matrices in ``batches`` times U^dag, the first pulse the rightmost factor.

    ``batches`` yields stacks of pulse matrices along a leading pulse axis.
    The column starts as the first column of U^dag and takes one
    matrix-vector step per pulse, written out on the pulse's entries (see
    :func:`_entries`): Python complex numbers for a scalar point and for a
    single U, whose arithmetic costs a fraction of numpy's scalar dispatch
    and whose product rounds as numpy's scalar one does, bit for bit; array
    views for a grid, a contour or a stack of targets.  This is the only place that multiplies
    pulse matrices.  An empty ``batches`` raises ValueError.
    """
    (w00, _, w10, _), = _entries(adjoint(u)[None])
    composed = False
    for m in batches:
        for m00, m01, m10, m11 in _entries(m):
            w00, w10 = m00 * w00 + m01 * w10, m10 * w00 + m11 * w10
            composed = True
    if not composed:
        raise ValueError("cannot compose an empty pulse sequence")
    return w00, w10


def _entries(m: np.ndarray):
    """The entries (m00, m01, m10, m11) of each matrix of a stack along its
    leading axis: Python complex numbers for a stack of lone 2x2 matrices,
    array views otherwise."""
    if m.ndim == 3:
        return m.reshape(-1, 4).tolist()
    return zip(m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1])


def contour_sigma_norms(pulses, u: np.ndarray, points: int = CONTOUR_POINTS) -> np.ndarray:
    """Norms of the degree 0..3 sigma coefficients of a pulse-length residual.

    W (see :func:`residual_columns`) is composed at ``points`` complex
    fractions on the circle |eps| = ``CONTOUR_RADIUS``; more nodes push the
    aliasing error, of relative size r^N, further down.  The result has the
    batch shape of the pulses and targets followed by 4.

    Only W's first column is composed.  With a and b the coefficients of w00
    and w10, those of w11 and w01 are conj(a) and -conj(b) (see
    :func:`residual_columns`), so the sigma_x, sigma_y and sigma_z parts of
    W, (w01 + w10) / 2, i (w01 - w10) / 2 and (w00 - w11) / 2, have the
    coefficients i Im(b), -i Re(b) and i Im(a): the norm is sqrt(|b|^2 +
    Im(a)^2), as the infidelity's |a|^2 is Im(w00)^2 + |w10|^2 at real
    fractions.
    """
    w00, w10 = residual_columns(pulses, PULSE_LENGTH, _contour(points)[0], 0.0, u)
    first = np.stack((w00, w10))
    # one (2 n, N) product: a stacked one takes another BLAS kernel and rounds differently
    a, b = taylor_coefficients(first.reshape(-1, points)).reshape(first.shape[:-1] + (4,))
    return np.sqrt(b.imag ** 2 + b.real ** 2 + a.imag ** 2)


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack along the
    last two axes."""
    return np.swapaxes(np.conjugate(m), -1, -2)


def fidelity(v: np.ndarray, u: np.ndarray) -> float:
    """Propagator fidelity |Tr(v u^dag)| / 2, global-phase invariant.

    Equals 1 exactly when the two unitaries agree up to a global phase.  The
    modulus discards the phase, which matters because 2pi rotations inside
    composite sequences contribute global factors of -1.
    """
    overlap = 0.5 * np.trace(np.asarray(v) @ adjoint(u))
    return min(abs(overlap), 1.0)


def pauli_decompose(m: np.ndarray) -> PauliDecomposition:
    """Expand a 2x2 matrix in the basis {I, sigma_x, sigma_y, sigma_z}."""
    m = np.asarray(m)
    return PauliDecomposition(
        c0=complex(m[0, 0] + m[1, 1]) / 2.0,
        cx=complex(m[0, 1] + m[1, 0]) / 2.0,
        cy=complex(1j * (m[0, 1] - m[1, 0])) / 2.0,
        cz=complex(m[0, 0] - m[1, 1]) / 2.0,
    )
