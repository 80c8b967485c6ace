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
terms may be combined and rotated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from . import series as _series
from .su2 import OFF_RESONANCE, PULSE_LENGTH, SIMULTANEOUS, Pulse

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
    """Raised when a numeric phase solver fails to converge; carries the best iterate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


def _p(angle: float, phase: float) -> Pulse:
    return Pulse(angle, phase)


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
    # positive-sign solution of 8 pi^2 cos^2(phi2) = theta*sqrt(16 pi^2 - theta^2)/8
    arg = (16.0 * PI**2 * theta**2 - theta**4) ** 0.25 / (8.0 * PI)
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


def sk_corrected(theta: float, order) -> PulseSequence:
    """Commutator-style corrected rotation, accurate to the requested order.

    order=1 appends the scaled first-order term X1(phi1); order=2 also
    appends the second-order z term Z2'(phi2); order="2rotated" builds the
    same z term by conjugating an x term with erroneous pi/2 pulses instead;
    order=3 (180 degree target only) cancels the remaining third-order error
    of the broadband sequence with a phase-shifted X3 term.
    """
    if order == 1:
        p1 = _phi1(theta)
        pulses = [_p(theta, 0.0), *_x1(p1)]
        return PulseSequence("sk1", theta, tuple(pulses), PULSE_LENGTH, metadata={"phi1": p1})
    if order == 2:
        p1, p2 = _phi1(theta), _phi2(theta)
        pulses = [_p(theta, 0.0), *_x1(p1), *_z2_prime(p2)]
        return PulseSequence(
            "sk2", theta, tuple(pulses), PULSE_LENGTH, metadata={"phi1": p1, "phi2": p2}
        )
    if order == "2rotated":
        p1, p2 = _phi1(theta), _phi2(theta)
        rotated = [_p(PI / 2, PI / 2), *_x2_prime(p2), _p(PI / 2, 3 * PI / 2)]
        pulses = [_p(theta, 0.0), *_x1(p1), *rotated]
        return PulseSequence(
            "sk2rot", theta, tuple(pulses), PULSE_LENGTH, metadata={"phi1": p1, "phi2": p2}
        )
    if order == 3:
        if not math.isclose(theta, PI, rel_tol=0.0, abs_tol=1e-12):
            raise ValueError("third-order correction is only implemented for a 180 degree target")
        phi3, delta = solve_third_order()
        base = bb1(PI)
        tail = [Pulse(p.angle, p.phase + delta) for p in _x3(phi3)]
        pulses = [*base.pulses, *tail]
        meta = dict(base.metadata, phi3=phi3, delta=delta)
        return PulseSequence("sk3", PI, tuple(pulses), PULSE_LENGTH, metadata=meta)
    raise ValueError(f"unsupported correction order {order!r}")


@lru_cache(maxsize=1)
def solve_third_order(tol: float = 1e-12, max_iter: int = 100) -> tuple[float, float]:
    """Phase pair (phi3, delta) cancelling the third-order error of bb1(pi).

    The residual of the broadband 180 sequence has its degree-3 sigma vector
    in the xy plane; following it with X3(phi3), every phase shifted by delta,
    adds -i 32 pi^3 cos^3(phi3) (cos(delta) sigma_x + sin(delta) sigma_y).
    The two in-plane components are driven to zero with a damped Newton
    iteration (finite-difference Jacobian); the seed comes from reading the
    required magnitude and direction off the degree-3 vector itself, which
    selects the branch with phi3 in (0, pi/2).
    """

    base = bb1(PI).pulses
    target = Pulse(PI, 0.0)

    def degree3(pulses) -> tuple[float, float]:
        _, cx, cy, _ = _series.residual(pulses, target, PULSE_LENGTH, degree=3).degree_pauli(3)
        return cx.imag, cy.imag

    def components(phi3: float, delta: float):
        return degree3([*base, *(Pulse(p.angle, p.phase + delta) for p in _x3(phi3))])

    vx, vy = degree3(base)
    mag = math.hypot(vx, vy)
    phi3 = math.acos((mag / (32.0 * PI**3)) ** (1.0 / 3.0))
    delta = math.atan2(vy, vx)

    best = None
    h = 1e-7
    for _ in range(max_iter):
        rx, ry = components(phi3, delta)
        norm = math.hypot(rx, ry)
        if best is None or norm < best[2]:
            best = (phi3, delta, norm)
        if norm < tol:
            return phi3, delta % TWO_PI
        # finite-difference Jacobian
        j = [[0.0, 0.0], [0.0, 0.0]]
        for k, (dp, dd) in enumerate(((h, 0.0), (0.0, h))):
            rxp, ryp = components(phi3 + dp, delta + dd)
            rxm, rym = components(phi3 - dp, delta - dd)
            j[0][k] = (rxp - rxm) / (2 * h)
            j[1][k] = (ryp - rym) / (2 * h)
        det = j[0][0] * j[1][1] - j[0][1] * j[1][0]
        if det == 0.0:
            break
        step_p = (-rx * j[1][1] + ry * j[0][1]) / det
        step_d = (-ry * j[0][0] + rx * j[1][0]) / det
        scale = 1.0
        for _ in range(50):
            nrx, nry = components(phi3 + scale * step_p, delta + scale * step_d)
            if math.hypot(nrx, nry) < norm:
                break
            scale *= 0.5
        phi3 += scale * step_p
        delta += scale * step_d
    raise SolverFailure(
        f"third-order phase solver did not reach |residual| < {tol} "
        f"in {max_iter} iterations (best {best[2]:.3e})",
        best=best,
    )


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

@dataclass(frozen=True)
class CorpseAngles:
    """Segment angles and winding integers of a three-segment sequence."""

    na: int
    nb: int
    nc: int
    theta_a: float
    theta_b: float
    theta_c: float


_CORPSE_PRESETS = {
    "corpse": (1, 1, 0),
    "short": (0, 1, 0),
    "short-corpse": (0, 1, 0),
    "short_corpse": (0, 1, 0),
}


def corpse_angles(theta: float, na: int, nb: int, nc: int) -> CorpseAngles:
    k = math.asin(math.sin(theta / 2.0) / 2.0)
    a = na * TWO_PI + theta / 2.0 - k
    b = nb * TWO_PI - 2.0 * k
    c = nc * TWO_PI + theta / 2.0 - k
    if min(a, b, c) <= 0.0:
        raise ValueError(
            f"corpse segment angles must be positive, got ({a:.4f}, {b:.4f}, {c:.4f})"
        )
    return CorpseAngles(na, nb, nc, a, b, c)


def corpse(theta: float, preset="corpse") -> PulseSequence:
    """Three-segment first-order off-resonance correction.

    ``preset`` selects the winding integers: "corpse" is (1, 1, 0), the
    smallest-error choice; "short" is (0, 1, 0), the shortest possible; a
    tuple (na, nb, nc) picks any other member of the family.  The middle
    segment runs with phase pi, the outer two with phase 0.
    """
    if isinstance(preset, str):
        try:
            na, nb, nc = _CORPSE_PRESETS[preset]
        except KeyError:
            raise ValueError(f"unknown corpse preset {preset!r}") from None
        name = "short-corpse" if preset.startswith("short") else "corpse"
    else:
        na, nb, nc = preset
        name = f"corpse-{na}{nb}{nc}"
    ang = corpse_angles(theta, na, nb, nc)
    pulses = (_p(ang.theta_a, 0.0), _p(ang.theta_b, PI), _p(ang.theta_c, 0.0))
    return PulseSequence(
        name,
        theta,
        pulses,
        OFF_RESONANCE,
        metadata={
            "theta_a": ang.theta_a,
            "theta_b": ang.theta_b,
            "theta_c": ang.theta_c,
            "na": na,
            "nb": nb,
            "nc": nc,
        },
    )


def short_corpse(theta: float) -> PulseSequence:
    return corpse(theta, "short")


# ---------------------------------------------------------------------------
# off-resonance corrected rotations

PHI1_180 = math.acos(-0.25)


def or_corrected(variant: str, theta: float | None = None) -> PulseSequence:
    """Corrected rotations for off-resonance (and simultaneous) errors.

    Variants:

    - ``first_pi``: Y1'(phi1) after a 180 pulse, phi1 = arccos(-1/4).
    - ``first_general``: works for any 0 < theta <= 2pi by combining the z
      and y first-order terms; cross terms between the two blocks stay at
      second order.
    - ``second_corpse_rotated``: second-order correction with the z error
      term rotated about y by corpse pulses.
    - ``second_xz``: second-order correction assembled from z and x error
      terms, 90/180 degree pulses only.
    - ``time_symmetric``: palindromic first-order correction; its fidelity
      is an even function of the off-resonance fraction.
    - ``simultaneous_pi``: eight-pulse 180 rotation tolerant of either error
      channel, combining the broadband correction trio (inert under pure
      off-resonance at first order) with a Y1'-type quad (exactly inert
      under pure amplitude errors).
    """
    if variant == "first_pi":
        pulses = [_p(PI, 0.0), *_y1p_or(PHI1_180)]
        return PulseSequence(
            "or-first", PI, tuple(pulses), OFF_RESONANCE, metadata={"phi1": PHI1_180}
        )

    if variant == "first_general":
        if theta is None:
            raise ValueError("first_general needs a target angle")
        if not 0.0 < theta <= TWO_PI:
            raise ValueError(f"first_general target must lie in (0, 2pi], got {theta}")
        phi1y = math.acos(-math.sin(theta / 2.0) ** 2 / 4.0)
        phi1z = -math.asin(math.sin(theta) / 4.0)
        # b1 needs nonnegative pulse angles; pi - phi1z has the same sine,
        # so it carries the same first-order coefficient with realizable pulses
        phi1z_used = phi1z if phi1z >= 0.0 else PI - phi1z
        pulses = [_p(theta, 0.0), *_y1p_or(phi1y), *_b1(phi1z_used)]
        return PulseSequence(
            "or-first-general",
            theta,
            tuple(pulses),
            OFF_RESONANCE,
            metadata={"phi1y": phi1y, "phi1z": phi1z, "phi1z_used": phi1z_used},
        )

    if variant == "second_corpse_rotated":
        psi2 = math.atan(PI / (2.0 * math.sqrt(15.0)))
        phi2 = math.acos((60.0 + PI**2) ** 0.25 / (8.0 * math.sqrt(2.0)))
        base = corpse(psi2, "corpse").pulses
        # C(psi2, 3pi/2) before the z term, C(psi2, pi/2) after: a y-axis
        # conjugation that tilts the second-order z error onto the residual
        rot_in = tuple(Pulse(p.angle, p.phase + 3 * PI / 2) for p in base)
        rot_out = tuple(Pulse(p.angle, p.phase + PI / 2) for p in base)
        pulses = [
            _p(PI, 0.0),
            *_y1p_or(PHI1_180),
            *rot_in,
            *_z2p_or(phi2),
            *rot_out,
        ]
        return PulseSequence(
            "or-second-corpse",
            PI,
            tuple(pulses),
            OFF_RESONANCE,
            metadata={"phi1": PHI1_180, "phi2": phi2, "psi2": psi2},
        )

    if variant == "second_xz":
        phi2x = math.acos(-PI / 64.0)
        phi2z = math.acos(15.0**0.25 / 8.0)
        pulses = [_p(PI, 0.0), *_y1p_or(PHI1_180), *_z2p_or(phi2z), *_x2_or(phi2x)]
        return PulseSequence(
            "or-second-xz",
            PI,
            tuple(pulses),
            OFF_RESONANCE,
            metadata={"phi1": PHI1_180, "phi2x": phi2x, "phi2z": phi2z},
        )

    if variant == "time_symmetric":
        phi1p = math.acos(-0.125)
        pulses = [*_y1_or(phi1p), _p(PI, 0.0), *_y1p_or(phi1p)]
        return PulseSequence(
            "or-timesym", PI, tuple(pulses), OFF_RESONANCE, metadata={"phi1_prime": phi1p}
        )

    if variant == "simultaneous_pi":
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
        return PulseSequence(
            "simultaneous", PI, pulses, SIMULTANEOUS, metadata={"phi1": phi1}
        )

    raise ValueError(f"unknown off-resonance corrected variant {variant!r}")


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


def _fixed_pi(builder, label):
    def build(theta: float) -> PulseSequence:
        if not math.isclose(theta, PI, rel_tol=0.0, abs_tol=1e-9):
            raise ValueError(f"{label} is only defined for a 180 degree target")
        return builder()

    return build


CATALOG = {
    "simple": _simple,
    "bb1": bb1,
    "sk1": lambda th: sk_corrected(th, 1),
    "sk2": lambda th: sk_corrected(th, 2),
    "sk2rot": lambda th: sk_corrected(th, "2rotated"),
    "sk3": _fixed_pi(lambda: sk_corrected(PI, 3), "sk3"),
    "corpse": lambda th: corpse(th, "corpse"),
    "short-corpse": lambda th: corpse(th, "short"),
    "or-first": _fixed_pi(lambda: or_corrected("first_pi"), "or-first"),
    "or-first-general": lambda th: or_corrected("first_general", th),
    "or-second-corpse": _fixed_pi(lambda: or_corrected("second_corpse_rotated"), "or-second-corpse"),
    "or-second-xz": _fixed_pi(lambda: or_corrected("second_xz"), "or-second-xz"),
    "or-timesym": _fixed_pi(lambda: or_corrected("time_symmetric"), "or-timesym"),
    "simultaneous": _fixed_pi(lambda: or_corrected("simultaneous_pi"), "simultaneous"),
}

CATALOG_MODELS = {
    "simple": PULSE_LENGTH,
    "bb1": PULSE_LENGTH,
    "sk1": PULSE_LENGTH,
    "sk2": PULSE_LENGTH,
    "sk2rot": PULSE_LENGTH,
    "sk3": PULSE_LENGTH,
    "corpse": OFF_RESONANCE,
    "short-corpse": OFF_RESONANCE,
    "or-first": OFF_RESONANCE,
    "or-first-general": OFF_RESONANCE,
    "or-second-corpse": OFF_RESONANCE,
    "or-second-xz": OFF_RESONANCE,
    "or-timesym": OFF_RESONANCE,
    "simultaneous": SIMULTANEOUS,
}


def build(name: str, theta: float = PI) -> PulseSequence:
    """Construct a catalog sequence by name for the given target angle (radians)."""
    try:
        builder = CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown sequence name {name!r}") from None
    return builder(theta)
