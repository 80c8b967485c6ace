"""Exact 2x2 unitary algebra for single-qubit rotations with systematic errors.

Rotations about axes in the xy plane are the elementary operations.  Two error
channels are modelled: a fractional miscalibration of every rotation angle
(pulse length error, fraction ``epsilon``) and a constant detuning of the
drive relative to its strength (off-resonance error, fraction ``f``), which
tilts every rotation axis toward z.  Both may act at once.  This module
decides the error-model vocabulary for every route: the kind check
(:func:`kind_of`), the refusal of negative-angle pulses off resonance
(:func:`flipped_pulse_error`) and the sweep axis of each single-channel kind
(``KIND_AXIS``).

The residual W = V U^dag of a sequence is analytic in the error fractions.
:func:`contour_sigma_norms` composes it at complex pulse-length fractions on
a circle and reads its Taylor coefficients of degree 0..3 off one discrete
Cauchy sum; both the phase solver in ``sequences`` and the crossover scan in
``verify`` use that read-out, and neither touches the series engine.

The grid pulse loop behind :func:`residual_grid` splits each propagator into
an angle part (the modulus, cosine and sine) and a phase part.  Composite
sequences repeat a few angles at many phases, so the angle part is evaluated
once per distinct angle and shared by every pulse of that angle; each matrix
is still the one a lone pulse gives, bit for bit.

All matrices are plain complex numpy arrays, all functions are pure, and the
small value types are frozen dataclasses, so everything is safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PULSE_LENGTH = "ple"
OFF_RESONANCE = "ore"
SIMULTANEOUS = "sim"
MODEL_KINDS = (PULSE_LENGTH, OFF_RESONANCE, SIMULTANEOUS)
#: the sweep axis of each single-channel error model
KIND_AXIS = {PULSE_LENGTH: "eps", OFF_RESONANCE: "f"}

TWO_PI = 2.0 * math.pi

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


@dataclass(frozen=True, slots=True)
class Pulse:
    """One elementary rotation: angle and axis phase, both in radians.

    The stored angle is always nonnegative.  A negative angle request is
    rewritten to ``(|angle|, phase + pi)``, which is exact for ideal rotations
    and for pulse length errors; the rewrite is recorded in ``flipped`` so
    that off-resonance propagators, for which it is not valid, can refuse the
    pulse.  Phases are reduced to [0, 2pi).
    """

    angle: float
    phase: float
    flipped: bool = False

    def __post_init__(self) -> None:
        angle = float(self.angle)
        phase = float(self.phase)
        if not (math.isfinite(angle) and math.isfinite(phase)):
            raise ValueError(f"pulse parameters must be finite, got ({angle}, {phase})")
        flipped = self.flipped
        if angle < 0.0:
            angle, phase, flipped = -angle, phase + math.pi, True
        phase %= TWO_PI
        if phase == TWO_PI:  # float % rounds a tiny negative phase up to the modulus
            phase = 0.0
        object.__setattr__(self, "angle", angle)
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "flipped", flipped)


@dataclass(frozen=True)
class ErrorModel:
    """Which systematic error applies and how large it is.

    ``kind`` is one of ``"ple"`` (pulse length), ``"ore"`` (off-resonance) or
    ``"sim"`` (both at once).  A pulse-length model carries only ``epsilon``,
    an off-resonance model only ``f``.
    """

    kind: str
    epsilon: float = 0.0
    f: float = 0.0

    def __post_init__(self) -> None:
        kind_of(self)
        if self.kind == PULSE_LENGTH and self.f != 0.0:
            raise ValueError("pulse-length model must not carry an off-resonance fraction")
        if self.kind == OFF_RESONANCE and self.epsilon != 0.0:
            raise ValueError("off-resonance model must not carry a pulse-length fraction")

    @classmethod
    def pulse_length(cls, epsilon: float) -> "ErrorModel":
        return cls(PULSE_LENGTH, epsilon=epsilon)

    @classmethod
    def off_resonance(cls, f: float) -> "ErrorModel":
        return cls(OFF_RESONANCE, f=f)

    @classmethod
    def simultaneous(cls, epsilon: float, f: float) -> "ErrorModel":
        return cls(SIMULTANEOUS, epsilon=epsilon, f=f)


def kind_of(model) -> str:
    """The kind of ``model``, an :class:`ErrorModel` or a kind string; a kind
    outside ``MODEL_KINDS`` raises ValueError."""
    kind = model.kind if isinstance(model, ErrorModel) else model
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown error model kind {kind!r}")
    return kind


def flipped_pulse_error() -> ValueError:
    """The refusal of a negative-angle pulse under an off-resonance model."""
    return ValueError(
        "off-resonance propagators are defined for nonnegative angles only; "
        "this pulse was built from a negative-angle request"
    )


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


def _phase_part(c, s, sz, phi, w) -> np.ndarray:
    """The rotation with angle part (c, s, s f) about the axis of phase ``phi``."""
    if isinstance(phi, np.ndarray):
        cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    else:
        cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    sx = s * (w * cos_phi)
    sy = s * (w * sin_phi)
    # sx carries the broadcast shape of every argument
    shape = np.shape(sx)
    if c.dtype.kind == "c":
        isx, isz = 1j * sx, 1j * sz
        out = np.empty(shape + (2, 2), dtype=complex)
        out[..., 0, 0] = c - isz
        out[..., 0, 1] = -sy - isx
        out[..., 1, 0] = sy - isx
        out[..., 1, 1] = c + isz
        return out
    # real and imaginary parts of [[c - i sz, -sy - i sx], [sy - i sx, c + i sz]]
    out = np.empty(shape + (2, 2, 2))
    out[..., 0, 0, 0] = c
    out[..., 0, 0, 1] = -sz
    out[..., 0, 1, 0] = -sy
    out[..., 0, 1, 1] = -sx
    out[..., 1, 0, 0] = sy
    out[..., 1, 0, 1] = -sx
    out[..., 1, 1, 0] = c
    out[..., 1, 1, 1] = sz
    return out.view(complex)[..., 0]


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
    return _phase_part(*_angle_part(theta, _modulus(w, f), f), phi, w)


def rotation(theta: float, phi: float) -> np.ndarray:
    """Ideal rotation exp[-i theta (sigma_x cos(phi) + sigma_y sin(phi)) / 2].

    ``theta`` (radians) may be negative; ``phi`` is the azimuth of the
    rotation axis in the xy plane.  The result is a 2x2 special unitary.
    """
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError(f"rotation arguments must be finite, got ({theta}, {phi})")
    return _axis_angle(theta, phi, 1.0, 0.0)


def _pulse_matrices(pulses, kind: str, eps, f):
    """Propagators of ``pulses`` under error model ``kind`` at fractions (eps, f), in order.

    w, f and m = |(w, f)| are computed once per call, and the angle part of
    :func:`_axis_angle` once per distinct pulse angle: composite sequences
    repeat a few angles at many phases.  A pulse's angle is keyed by its
    value, or by its bytes when it is an array column of several sequences.
    Each yielded matrix equals the one :func:`_axis_angle` gives for that
    pulse alone, bit for bit.
    """
    if kind_of(kind) == PULSE_LENGTH:
        stretch, w, f = 1.0 + eps, 1.0, 0.0
    else:
        stretch, w = None, (1.0 + eps if kind == SIMULTANEOUS else 1.0)
    m = _modulus(w, f)
    parts = {}
    for pulse in pulses:
        if stretch is None and pulse.flipped:
            raise flipped_pulse_error()
        angle = pulse.angle
        if isinstance(angle, np.ndarray):
            key = angle.tobytes()
        else:
            # 0.0 == -0.0 as keys, but their matrices differ in the signs of zeros
            key = angle if angle else repr(angle)
        part = parts.get(key)
        if part is None:
            part = parts[key] = _angle_part(angle if stretch is None else angle * stretch, m, f)
        yield _phase_part(*part, pulse.phase, w)


def pulse_matrix(pulse: Pulse, kind: str, eps, f) -> np.ndarray:
    """Propagator of one pulse under error model ``kind`` at fractions (eps, f).

    ``eps`` and ``f`` may be arrays, giving one 2x2 matrix per grid point,
    and may be complex (see :func:`_axis_angle`); the fraction a model does
    not carry is ignored.  An unknown ``kind`` raises ``ValueError``.
    """
    return next(_pulse_matrices((pulse,), kind, eps, f))


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
    rightmost factor.
    """
    return _chain(propagator(p, model) for p in pulses)


def _chain(matrices) -> np.ndarray:
    """Product of (stacks of) matrices, the first one the rightmost factor."""
    out = None
    for m in matrices:
        out = m if out is None else m @ out
    if out is None:
        raise ValueError("cannot compose an empty pulse sequence")
    return out


def residual_grid(pulses, kind: str, eps, f, u: np.ndarray) -> np.ndarray:
    """W = V U^dag at every point of the broadcast grid of (eps, f).

    V is the sequence composed under error model ``kind``; a pulse is
    anything with the fields :func:`pulse_matrix` reads, which under "ple"
    are ``angle`` and ``phase`` only, so they may be columns of several
    sequences.  U is the ideal target matrix, or a stack of them that
    broadcasts against V.  W has the broadcast shape followed by (2, 2).
    The modulus, cosine and sine of the angle part are evaluated once per
    distinct pulse angle, not once per pulse (see :func:`_pulse_matrices`).
    """
    w = _chain(_pulse_matrices(pulses, kind, eps, f))
    return w @ np.swapaxes(u.conj(), -1, -2)


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


def contour_sigma_norms(pulses, u: np.ndarray, points: int = CONTOUR_POINTS) -> np.ndarray:
    """Norms of the degree 0..3 sigma coefficients of a pulse-length residual.

    W = V U^dag (see :func:`residual_grid`) is composed at ``points`` complex
    fractions on the circle |eps| = ``CONTOUR_RADIUS``; more nodes push the
    aliasing error, of relative size r^N, further down.  The result has the
    batch shape of the pulses and targets followed by 4.
    """
    w = residual_grid(pulses, PULSE_LENGTH, _contour(points)[0], 0.0, u)
    # sigma parts of W without conj, so that they stay analytic in eps
    w01, w10 = w[..., 0, 1], w[..., 1, 0]
    sigma = np.stack([w01 + w10, 1j * (w01 - w10), w[..., 0, 0] - w[..., 1, 1]]) / 2.0
    # one (3 n, N) product: a stacked one takes another BLAS kernel and rounds differently
    coeffs = taylor_coefficients(sigma.reshape(-1, points)).reshape(sigma.shape[:-1] + (4,))
    return np.sqrt((np.abs(coeffs) ** 2).sum(axis=0))


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T.copy()


def fidelity(v: np.ndarray, u: np.ndarray) -> float:
    """Propagator fidelity |Tr(v u^dag)| / 2, global-phase invariant.

    Equals 1 exactly when the two unitaries agree up to a global phase.  The
    modulus discards the phase, which matters because 2pi rotations inside
    composite sequences contribute global factors of -1.
    """
    overlap = 0.5 * np.trace(np.asarray(v) @ np.asarray(u).conj().T)
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
