"""Constructors for the composite pulse catalog.

Every sequence is stored chronologically: the first list entry is the first
pulse applied, so composing right-to-left over the reversed list reproduces
the usual operator-product notation.  Solver outputs (correction phases and
the like) are kept in the sequence metadata in radians; degrees appear only
at the CLI boundary.

Two families are covered.  Pulse-length correction sequences (BB1 and the
commutator-built SK family) are exact constructions: V(theta, phi+pi) is an
exact inverse of V(theta, phi) under a pure amplitude error, so pure error
terms of any order can be assembled from 2pi rotations.  Off-resonance
correction sequences (CORPSE and the sequences built from 90/180 degree
blocks) only have approximate inverses available, which restricts how error
terms may be combined and rotated.  Every correction phase is closed form,
sk3's included; its one check reads the residual off a contour in ``su2``, so
nothing here uses the series engine that certifies these sequences.

``CATALOG`` maps each sequence name to its one builder, ``theta ->
PulseSequence``, and the sequence it returns carries that name.
``build(name, theta)`` is the constructor for catalog entries.  Six entries
are defined for a 180 degree target only and refuse any other angle.
``bb1``, ``corpse`` (with the winding family ``corpse(theta, windings)``) and
``short_corpse`` are also public; the tunable pure error terms come from
``ple_pure_error`` and ``or_pure_error``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

from .su2 import OFF_RESONANCE, PULSE_LENGTH, SIMULTANEOUS, Pulse, contour_sigma_norms, rotation

PI = math.pi
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PulseSequence:
    """Named ordered pulse list plus the target rotation it implements.

    ``pulses`` are chronological.  ``model_kind`` records which systematic
    error the sequence is designed against ("ple", "ore" or "sim");
    ``metadata`` holds solver outputs keyed by name, all in radians.
    """

    name: str
    target_theta: float
    pulses: tuple[Pulse, ...]
    model_kind: str = PULSE_LENGTH
    target_phi: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __iter__(self):
        return iter(self.pulses)

    def __len__(self):
        return len(self.pulses)

    @property
    def target(self) -> Pulse:
        return Pulse(self.target_theta, self.target_phi)

    @property
    def total_angle(self) -> float:
        return sum(p.angle for p in self.pulses)


class SolverFailure(RuntimeError):
    """Raised when a phase solver's root fails its residual check.

    ``best`` holds that root and its residual norm.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


def _p(angle: float, phase: float) -> Pulse:
    return Pulse(angle, phase)


def _require_pi(theta: float, name: str) -> None:
    if not math.isclose(theta, PI, rel_tol=0.0, abs_tol=1e-9):
        raise ValueError(f"{name} is only defined for a 180 degree target")


# ---------------------------------------------------------------------------
# pulse-length pure error building blocks (chronological pulse lists)

def _x1(phi):
    return [_p(TWO_PI, -phi), _p(TWO_PI, phi)]


def _y1(phi):
    return [_p(TWO_PI, PI / 2 - phi), _p(TWO_PI, PI / 2 + phi)]


def _x1_inv(phi):
    # exact inverse: both pulses reversed and shifted by pi
    return [_p(TWO_PI, PI + phi), _p(TWO_PI, PI - phi)]


def _y1_inv(phi):
    return [_p(TWO_PI, 3 * PI / 2 + phi), _p(TWO_PI, 3 * PI / 2 - phi)]


def _z1(phi):
    # composite-Z sandwich around the x error term, erroneous pi/2 pulses
    return [_p(PI / 2, PI / 2), *_x1(phi), _p(PI / 2, 3 * PI / 2)]


def _z1_inv(phi):
    return [_p(PI / 2, PI / 2), *_x1_inv(phi), _p(PI / 2, 3 * PI / 2)]


def _z2(phi):
    # group commutator X1 Y1 X1^-1 Y1^-1 (product order), chronological
    return [*_y1_inv(phi), *_x1_inv(phi), *_y1(phi), *_x1(phi)]


def _z2_prime(phi):
    # exact inverse of _z2: opposite-sign second-order z error
    return [*_x1_inv(phi), *_y1_inv(phi), *_x1(phi), *_y1(phi)]


def _z2_general(alpha, beta):
    return [*_y1_inv(beta), *_x1_inv(alpha), *_y1(beta), *_x1(alpha)]


def _six_pulse_z2(beta):
    # V(2pi,0) Y1(beta) V(2pi,pi) Y1^-1(beta): the unscaled x term saves two pulses
    return [*_y1_inv(beta), _p(TWO_PI, PI), *_y1(beta), _p(TWO_PI, 0.0)]


def _x2_prime(phi):
    # Z1 Y1 Z1^-1 Y1^-1: second-order x error from z and y first-order terms
    return [*_y1_inv(phi), *_z1_inv(phi), *_y1(phi), *_z1(phi)]


def _x3(phi):
    # Y1 Z2 Y1^-1 Z2^-1 with Z2^-1 = Z2'; third-order x error
    return [*_z2_prime(phi), *_y1_inv(phi), *_z2(phi), *_y1(phi)]


_PLE_PURE = {
    "x1": _x1,
    "y1": _y1,
    "x1inv": _x1_inv,
    "y1inv": _y1_inv,
    "z1": _z1,
    "z2": _z2,
    "z2prime": _z2_prime,
    "x2prime": _x2_prime,
    "x3": _x3,
}


def ple_pure_error(kind: str, *angles: float) -> PulseSequence:
    """Pure error term for pulse length errors.

    Kinds taking one phase: ``x1``, ``y1``, ``x1inv``, ``y1inv``, ``z1``,
    ``z2``, ``z2prime``, ``x2prime``, ``x3``, ``six_pulse_z2``.  The kind
    ``z2general`` takes two phases (alpha, beta) and produces a second-order
    z error of size 8 pi^2 cos(alpha) cos(beta).
    """
    if kind == "z2general":
        if len(angles) != 2:
            raise ValueError("z2general takes exactly two phases (alpha, beta)")
        alpha, beta = angles
        pulses = _z2_general(alpha, beta)
        meta = {"alpha": alpha, "beta": beta}
    elif kind == "six_pulse_z2":
        if len(angles) != 1:
            raise ValueError("six_pulse_z2 takes exactly one phase (beta)")
        (beta,) = angles
        pulses = _six_pulse_z2(beta)
        meta = {"beta": beta}
    elif kind in _PLE_PURE:
        if len(angles) != 1:
            raise ValueError(f"{kind} takes exactly one phase")
        (phi,) = angles
        pulses = _PLE_PURE[kind](phi)
        meta = {"phi": phi}
    else:
        raise ValueError(f"unknown pulse-length pure error kind {kind!r}")
    return PulseSequence(
        name=f"ple-{kind}",
        target_theta=0.0,
        pulses=tuple(pulses),
        model_kind=PULSE_LENGTH,
        metadata=meta,
    )


# ---------------------------------------------------------------------------
# pulse-length corrected rotations

def _phi1(theta: float) -> float:
    x = -theta / (4.0 * PI)
    if not -1.0 <= x <= 1.0 or theta <= 0.0:
        raise ValueError(f"no first-order correction phase for theta = {theta}")
    return math.acos(x)


def _phi2(theta: float) -> float:
    # positive-sign solution of 8 pi^2 cos^2(phi2) = theta*sqrt(16 pi^2 - theta^2)/8;
    # the factored radicand keeps its zero at theta = 4 pi exact
    arg = (theta * theta * (4.0 * PI - theta) * (4.0 * PI + theta)) ** 0.25 / (8.0 * PI)
    return math.acos(arg)


def bb1(theta: float) -> PulseSequence:
    """Wimperis broadband sequence: three correction pulses, third-order accurate.

    Chronologically the main pulse comes first, then the pi / 2pi / pi
    correction pulses with phases (phi_a, 3 phi_a, phi_a), where
    phi_a = arccos(-theta / 4 pi).
    """
    phia = _phi1(theta)
    pulses = (
        _p(theta, 0.0),
        _p(PI, phia),
        _p(TWO_PI, 3.0 * phia),
        _p(PI, phia),
    )
    return PulseSequence(
        "bb1", theta, pulses, PULSE_LENGTH, metadata={"phi_a": phia, "phi_b": 3.0 * phia}
    )


def _sk1(theta: float) -> PulseSequence:
    """The rotation followed by the scaled first-order term X1(phi1): second order."""
    p1 = _phi1(theta)
    pulses = [_p(theta, 0.0), *_x1(p1)]
    return PulseSequence("sk1", theta, tuple(pulses), PULSE_LENGTH, metadata={"phi1": p1})


def _sk2(theta: float) -> PulseSequence:
    """sk1 followed by the second-order z term Z2'(phi2): third order."""
    p1, p2 = _phi1(theta), _phi2(theta)
    pulses = [_p(theta, 0.0), *_x1(p1), *_z2_prime(p2)]
    return PulseSequence(
        "sk2", theta, tuple(pulses), PULSE_LENGTH, metadata={"phi1": p1, "phi2": p2}
    )


def _sk2rot(theta: float) -> PulseSequence:
    """sk2 with its z term built by conjugating an x term with erroneous pi/2 pulses."""
    p1, p2 = _phi1(theta), _phi2(theta)
    rotated = [_p(PI / 2, PI / 2), *_x2_prime(p2), _p(PI / 2, 3 * PI / 2)]
    pulses = [_p(theta, 0.0), *_x1(p1), *rotated]
    return PulseSequence(
        "sk2rot", theta, tuple(pulses), PULSE_LENGTH, metadata={"phi1": p1, "phi2": p2}
    )


def _sk3(theta: float) -> PulseSequence:
    """bb1(pi) then X3(phi3) with every phase shifted by delta: fourth order, 180 only."""
    _require_pi(theta, "sk3")
    phi3, delta = solve_third_order()
    base = bb1(PI)
    tail = [Pulse(p.angle, p.phase + delta) for p in _x3(phi3)]
    pulses = [*base.pulses, *tail]
    meta = dict(base.metadata, phi3=phi3, delta=delta)
    return PulseSequence("sk3", PI, tuple(pulses), PULSE_LENGTH, metadata=meta)


@lru_cache(maxsize=1)
def solve_third_order(tol: float = 1e-12) -> tuple[float, float]:
    """Phase pair (phi3, delta) cancelling the third-order error of bb1(pi).

    The residual of the broadband 180 sequence has no degree-1 or degree-2
    sigma terms, and its degree-3 sigma vector is i pi^3 (-5 sigma_x +
    sqrt(15) sigma_y) / 64.  X3(phi3) with every phase shifted by delta has
    no degree-1 or degree-2 terms either, so appending it adds exactly
    -i 32 pi^3 cos^3(phi3) (cos(delta) sigma_x + sin(delta) sigma_y)
    at degree 3.  The root is therefore cos^3(phi3) = sqrt(40) / 2048, on the
    branch with phi3 in (0, pi/2), and delta = atan2(sqrt(15), -5).  It is
    checked on the contour: the sigma norms of the corrected residual at
    degrees 1, 2 and 3, read off 64 nodes, where 32 would alias ~4e-11 into
    degree 3.  If the largest does not fall below ``tol``, SolverFailure
    carries ``best = (phi3, delta, norm)``.
    """
    phi3 = math.acos((math.sqrt(40.0) / 2048.0) ** (1.0 / 3.0))
    delta = math.atan2(math.sqrt(15.0), -5.0)
    pulses = [*bb1(PI).pulses, *(Pulse(p.angle, p.phase + delta) for p in _x3(phi3))]
    norm = float(contour_sigma_norms(pulses, rotation(PI, 0.0), points=64)[1:].max())
    if not norm < tol:
        raise SolverFailure(
            f"third-order phase solver: |residual| {norm:.3e} at the closed-form root "
            f"is not below {tol}",
            best=(phi3, delta, norm),
        )
    return phi3, delta


# ---------------------------------------------------------------------------
# off-resonance building blocks

def _b1(phi):
    if phi < 0.0:
        raise ValueError(
            "b1 needs a nonnegative phase parameter (it fixes the pulse angles); "
            "use phi + pi for a negative z coefficient"
        )
    return [_p(phi, 0.0), _p(2.0 * phi, PI), _p(phi, 0.0)]


def _y1p_or(phi):
    return [_p(PI, PI - phi), _p(PI, -phi), _p(PI, PI + phi), _p(PI, phi)]


def _x1_or(phi):
    return [_p(PI, 3 * PI / 2 + phi), _p(PI, PI / 2 + phi), _p(PI, 3 * PI / 2 - phi), _p(PI, PI / 2 - phi)]


def _y1_or(phi):
    return [_p(PI, phi), _p(PI, PI + phi), _p(PI, -phi), _p(PI, PI - phi)]


def _x1p_or(phi):
    # reversed pulse order of _x1_or: approximate inverse under off-resonance errors
    return [_p(PI, PI / 2 - phi), _p(PI, 3 * PI / 2 - phi), _p(PI, PI / 2 + phi), _p(PI, 3 * PI / 2 + phi)]


def _z2_or(phi):
    return [*_y1p_or(phi), *_x1p_or(phi), *_y1_or(phi), *_x1_or(phi)]


def _z2p_or(phi):
    return [*_x1p_or(phi), *_y1p_or(phi), *_x1_or(phi), *_y1_or(phi)]


def _x2_or(phi):
    # Y1 B1(pi/2) Y1' B1(3pi/2): B1(3pi/2) is a good inverse for B1(pi/2)
    return [*_b1(3 * PI / 2), *_y1p_or(phi), *_b1(PI / 2), *_y1_or(phi)]


_OR_PURE = {
    "b1": _b1,
    "y1prime": _y1p_or,
    "x1": _x1_or,
    "y1": _y1_or,
    "x1prime": _x1p_or,
    "z2": _z2_or,
    "z2prime": _z2p_or,
    "x2": _x2_or,
}


def or_pure_error(kind: str, phi: float) -> PulseSequence:
    """Pure error term for off-resonance errors, built from 90/180 degree pulses.

    Kinds: ``b1``, ``y1prime``, ``x1``, ``y1``, ``x1prime``, ``z2``,
    ``z2prime``, ``x2``.
    """
    try:
        builder = _OR_PURE[kind]
    except KeyError:
        raise ValueError(f"unknown off-resonance pure error kind {kind!r}") from None
    return PulseSequence(
        name=f"or-{kind}",
        target_theta=0.0,
        pulses=tuple(builder(phi)),
        model_kind=OFF_RESONANCE,
        metadata={"phi": phi},
    )


# ---------------------------------------------------------------------------
# CORPSE

def corpse(theta: float, windings=(1, 1, 0)) -> PulseSequence:
    """Three-segment first-order off-resonance correction.

    ``windings`` are the integers (na, nb, nc).  The default (1, 1, 0) is the
    smallest-error choice and is named "corpse"; any other member of the
    family is named "corpse-<na><nb><nc>".  The middle segment runs with
    phase pi, the outer two with phase 0.
    """
    na, nb, nc = windings
    k = math.asin(math.sin(theta / 2.0) / 2.0)
    a = na * TWO_PI + theta / 2.0 - k
    b = nb * TWO_PI - 2.0 * k
    c = nc * TWO_PI + theta / 2.0 - k
    if min(a, b, c) <= 0.0:
        raise ValueError(
            f"corpse segment angles must be positive, got ({a:.4f}, {b:.4f}, {c:.4f})"
        )
    name = "corpse" if (na, nb, nc) == (1, 1, 0) else f"corpse-{na}{nb}{nc}"
    pulses = (_p(a, 0.0), _p(b, PI), _p(c, 0.0))
    meta = {"theta_a": a, "theta_b": b, "theta_c": c, "na": na, "nb": nb, "nc": nc}
    return PulseSequence(name, theta, pulses, OFF_RESONANCE, metadata=meta)


def short_corpse(theta: float) -> PulseSequence:
    """The shortest member of the corpse family, windings (0, 1, 0)."""
    return replace(corpse(theta, (0, 1, 0)), name="short-corpse")


# ---------------------------------------------------------------------------
# off-resonance corrected rotations

PHI1_180 = math.acos(-0.25)


def _or_first(theta: float) -> PulseSequence:
    """Y1'(phi1) after a 180 pulse, phi1 = arccos(-1/4); 180 degrees only."""
    _require_pi(theta, "or-first")
    pulses = [_p(PI, 0.0), *_y1p_or(PHI1_180)]
    return PulseSequence("or-first", PI, tuple(pulses), OFF_RESONANCE, metadata={"phi1": PHI1_180})


def _or_first_general(theta: float) -> PulseSequence:
    """First-order correction for any 0 < theta <= 2pi from z and y first-order terms.

    Cross terms between the two blocks stay at second order.
    """
    if not 0.0 < theta <= TWO_PI:
        raise ValueError(f"or-first-general target must lie in (0, 2pi], got {theta}")
    phi1y = math.acos(-math.sin(theta / 2.0) ** 2 / 4.0)
    phi1z = -math.asin(math.sin(theta) / 4.0)
    # b1 needs nonnegative pulse angles; pi - phi1z has the same sine,
    # so it carries the same first-order coefficient with realizable pulses
    phi1z_used = phi1z if phi1z >= 0.0 else PI - phi1z
    pulses = [_p(theta, 0.0), *_y1p_or(phi1y), *_b1(phi1z_used)]
    meta = {"phi1y": phi1y, "phi1z": phi1z, "phi1z_used": phi1z_used}
    return PulseSequence("or-first-general", theta, tuple(pulses), OFF_RESONANCE, metadata=meta)


def _or_second_corpse(theta: float) -> PulseSequence:
    """Second order, the z error term rotated about y by corpse pulses; 180 only."""
    _require_pi(theta, "or-second-corpse")
    psi2 = math.atan(PI / (2.0 * math.sqrt(15.0)))
    phi2 = math.acos((60.0 + PI**2) ** 0.25 / (8.0 * math.sqrt(2.0)))
    base = corpse(psi2).pulses
    # C(psi2, 3pi/2) before the z term, C(psi2, pi/2) after: a y-axis
    # conjugation that tilts the second-order z error onto the residual
    rot_in = tuple(Pulse(p.angle, p.phase + 3 * PI / 2) for p in base)
    rot_out = tuple(Pulse(p.angle, p.phase + PI / 2) for p in base)
    pulses = [_p(PI, 0.0), *_y1p_or(PHI1_180), *rot_in, *_z2p_or(phi2), *rot_out]
    meta = {"phi1": PHI1_180, "phi2": phi2, "psi2": psi2}
    return PulseSequence("or-second-corpse", PI, tuple(pulses), OFF_RESONANCE, metadata=meta)


def _or_second_xz(theta: float) -> PulseSequence:
    """Second order from z and x error terms, 90/180 degree pulses only; 180 only."""
    _require_pi(theta, "or-second-xz")
    phi2x = math.acos(-PI / 64.0)
    phi2z = math.acos(15.0**0.25 / 8.0)
    pulses = [_p(PI, 0.0), *_y1p_or(PHI1_180), *_z2p_or(phi2z), *_x2_or(phi2x)]
    meta = {"phi1": PHI1_180, "phi2x": phi2x, "phi2z": phi2z}
    return PulseSequence("or-second-xz", PI, tuple(pulses), OFF_RESONANCE, metadata=meta)


def _or_timesym(theta: float) -> PulseSequence:
    """Palindromic first-order correction, fidelity even in f; 180 only."""
    _require_pi(theta, "or-timesym")
    phi1p = math.acos(-0.125)
    pulses = [*_y1_or(phi1p), _p(PI, 0.0), *_y1p_or(phi1p)]
    meta = {"phi1_prime": phi1p}
    return PulseSequence("or-timesym", PI, tuple(pulses), OFF_RESONANCE, metadata=meta)


def _simultaneous(theta: float) -> PulseSequence:
    """Eight-pulse 180 rotation tolerant of either error channel; 180 only.

    The broadband correction trio (inert under pure off-resonance at first
    order) followed by a Y1'-type quad (exactly inert under pure amplitude
    errors).
    """
    _require_pi(theta, "simultaneous")
    phi1 = PHI1_180
    pulses = (
        _p(PI, 0.0),
        _p(PI, phi1),
        _p(TWO_PI, 3.0 * phi1),
        _p(PI, phi1),
        _p(PI, PI - phi1),
        _p(PI, -phi1),
        _p(PI, PI + phi1),
        _p(PI, phi1),
    )
    return PulseSequence("simultaneous", PI, pulses, SIMULTANEOUS, metadata={"phi1": phi1})


def shift_phases(seq: PulseSequence, dphi: float) -> PulseSequence:
    """Copy of a sequence with every pulse phase offset by dphi.

    The implemented rotation acquires the same offset: a sequence for
    U(theta, 0) becomes one for U(theta, dphi) with identical error order.
    """
    pulses = tuple(Pulse(p.angle, p.phase + dphi) for p in seq.pulses)
    meta = dict(seq.metadata)
    meta["phase_offset"] = meta.get("phase_offset", 0.0) + dphi
    return PulseSequence(
        seq.name,
        seq.target_theta,
        pulses,
        seq.model_kind,
        target_phi=(seq.target_phi + dphi) % TWO_PI,
        metadata=meta,
    )


# ---------------------------------------------------------------------------
# catalog

def _simple(theta: float) -> PulseSequence:
    return PulseSequence("simple", theta, (_p(theta, 0.0),), PULSE_LENGTH)


CATALOG = {
    "simple": _simple,
    "bb1": bb1,
    "sk1": _sk1,
    "sk2": _sk2,
    "sk2rot": _sk2rot,
    "sk3": _sk3,
    "corpse": corpse,
    "short-corpse": short_corpse,
    "or-first": _or_first,
    "or-first-general": _or_first_general,
    "or-second-corpse": _or_second_corpse,
    "or-second-xz": _or_second_xz,
    "or-timesym": _or_timesym,
    "simultaneous": _simultaneous,
}


def build(name: str, theta: float = PI) -> PulseSequence:
    """Construct a catalog sequence by name for the given target angle (radians)."""
    try:
        builder = CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown sequence name {name!r}") from None
    return builder(theta)
