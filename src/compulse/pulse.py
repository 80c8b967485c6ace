"""Pulses and error models: the value types every route shares, without numpy.

A :class:`Pulse` is one elementary rotation about an axis in the xy plane,
angle and phase in radians.  An :class:`ErrorModel` names the systematic
error that acts on every pulse: a fractional miscalibration of every rotation
angle (pulse length error, fraction ``epsilon``), a constant detuning of the
drive relative to its strength (off-resonance error, fraction ``f``), or both
at once.

This module decides the error-model vocabulary for every route: the kind
check (:func:`kind_of`), the refusal of a negative-angle pulse under an
off-resonance model (:func:`negative_angle_error`) and the sweep axis of
each single-channel kind (``KIND_AXIS``).  It imports nothing outside the
standard library, so building a sequence or reading a sequence document
loads no numerical code; ``su2`` takes these names from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PULSE_LENGTH = "ple"
OFF_RESONANCE = "ore"
SIMULTANEOUS = "sim"
MODEL_KINDS = (PULSE_LENGTH, OFF_RESONANCE, SIMULTANEOUS)
#: the sweep axis of each single-channel error model
KIND_AXIS = {PULSE_LENGTH: "eps", OFF_RESONANCE: "f"}

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, slots=True)
class Pulse:
    """One elementary rotation: angle and axis phase, both in radians.

    The angle is kept as given, sign included; the phase is reduced to
    [0, 2pi).
    """

    angle: float
    phase: float

    def __post_init__(self) -> None:
        angle = float(self.angle)
        phase = float(self.phase)
        if not (math.isfinite(angle) and math.isfinite(phase)):
            raise ValueError(f"pulse parameters must be finite, got ({angle}, {phase})")
        phase %= TWO_PI
        if phase == TWO_PI:  # float % rounds a tiny negative phase up to the modulus
            phase = 0.0
        object.__setattr__(self, "angle", angle)
        object.__setattr__(self, "phase", phase)


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


def negative_angle_error() -> ValueError:
    """The refusal of a negative-angle pulse under an off-resonance model."""
    return ValueError(
        "off-resonance propagators are defined for nonnegative angles only; "
        "this pulse was built from a negative-angle request"
    )
