"""Exact 2x2 unitary algebra for single-qubit rotations with systematic errors.

Rotations about axes in the xy plane are the elementary operations.  Two error
channels are modelled: a fractional miscalibration of every rotation angle
(pulse length error, fraction ``epsilon``) and a constant detuning of the
drive relative to its strength (off-resonance error, fraction ``f``), which
tilts every rotation axis toward z.  Both may act at once.

All matrices are plain complex numpy arrays, all functions are pure, and the
small value types are frozen dataclasses, so everything is safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PULSE_LENGTH = "ple"
OFF_RESONANCE = "ore"
SIMULTANEOUS = "sim"
MODEL_KINDS = (PULSE_LENGTH, OFF_RESONANCE, SIMULTANEOUS)

TWO_PI = 2.0 * math.pi

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
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
        object.__setattr__(self, "angle", angle)
        object.__setattr__(self, "phase", phase % TWO_PI)
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
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown error model kind {self.kind!r}")
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


@dataclass(frozen=True)
class PauliDecomposition:
    """Coefficients of M = c0*I + cx*sigma_x + cy*sigma_y + cz*sigma_z."""

    c0: complex
    cx: complex
    cy: complex
    cz: complex

    @property
    def vector(self) -> tuple[complex, complex, complex]:
        return (self.cx, self.cy, self.cz)

    @property
    def vector_norm(self) -> float:
        return math.sqrt(abs(self.cx) ** 2 + abs(self.cy) ** 2 + abs(self.cz) ** 2)

    def reconstruct(self) -> np.ndarray:
        return (
            self.c0 * IDENTITY
            + self.cx * SIGMA_X
            + self.cy * SIGMA_Y
            + self.cz * SIGMA_Z
        )


def _axis_angle(theta, phi: float, w, f) -> np.ndarray:
    """exp[-i theta (w (sigma_x cos(phi) + sigma_y sin(phi)) + f sigma_z) / 2].

    The closed form is c I - i s (w cos(phi) sigma_x + w sin(phi) sigma_y +
    f sigma_z) with m = |(w, f)|, c = cos(theta m / 2), s = sin(theta m / 2) / m.
    ``theta``, ``w`` and ``f`` may be arrays; the result has their broadcast
    shape followed by (2, 2).
    """
    m = np.hypot(w, f)
    a = theta * m / 2.0
    c = np.cos(a)
    s = np.sin(a) / m
    sx = s * (w * math.cos(phi))
    sy = s * (w * math.sin(phi))
    sz = s * f
    # real and imaginary parts of [[c - i sz, -sy - i sx], [sy - i sx, c + i sz]]
    out = np.empty(np.shape(a) + (2, 2, 2))
    out[..., 0, 0, 0] = c
    out[..., 0, 0, 1] = -sz
    out[..., 0, 1, 0] = -sy
    out[..., 0, 1, 1] = -sx
    out[..., 1, 0, 0] = sy
    out[..., 1, 0, 1] = -sx
    out[..., 1, 1, 0] = c
    out[..., 1, 1, 1] = sz
    return out.view(complex)[..., 0]


def rotation(theta: float, phi: float) -> np.ndarray:
    """Ideal rotation exp[-i theta (sigma_x cos(phi) + sigma_y sin(phi)) / 2].

    Parameters
    ----------
    theta : float
        Rotation angle in radians.  May be negative (an exact identity maps
        it to a positive rotation with phase shifted by pi).
    phi : float
        Azimuthal angle of the rotation axis in the xy plane, radians.

    Returns
    -------
    np.ndarray
        The 2x2 special-unitary propagator.
    """
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError(f"rotation arguments must be finite, got ({theta}, {phi})")
    return _axis_angle(theta, phi, 1.0, 0.0)


def pulse_matrix(pulse: Pulse, kind: str, eps, f) -> np.ndarray:
    """Propagator of one pulse under error model ``kind`` at fractions (eps, f).

    ``eps`` and ``f`` may be arrays, giving one 2x2 matrix per grid point;
    the fraction a model does not carry is ignored.
    """
    if kind == PULSE_LENGTH:
        return _axis_angle(pulse.angle * (1.0 + eps), pulse.phase, 1.0, 0.0)
    if pulse.flipped:
        raise ValueError(
            "off-resonance propagators are defined for nonnegative angles only; "
            "this pulse was built from a negative-angle request"
        )
    w = 1.0 + eps if kind == SIMULTANEOUS else 1.0
    return _axis_angle(pulse.angle, pulse.phase, w, f)


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
    out = None
    for p in pulses:
        m = propagator(p, model)
        out = m if out is None else m @ out
    if out is None:
        raise ValueError("cannot compose an empty pulse sequence")
    return out


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
