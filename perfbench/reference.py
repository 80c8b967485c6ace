"""Independent references for the benchmark's correctness checks.

Nothing here imports compulse.  Propagators are written from the physics in
mpmath at 40 or more significant digits, and the closed forms and error
orders are the paper's.  The checks in ``checks.py`` compare the program's
outputs against these values.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp, mpf

PI = math.pi

#: error order per catalog entry and axis, as claimed in the paper
ORDERS = {
    "simple": {"eps": 1},
    "sk1": {"eps": 2},
    "sk2": {"eps": 3},
    "sk2rot": {"eps": 3},
    "bb1": {"eps": 3},
    "sk3": {"eps": 4},
    "corpse": {"f": 2},
    "short-corpse": {"f": 2},
    "or-first": {"f": 2},
    "or-first-general": {"f": 2},
    "or-timesym": {"f": 2},
    "or-second-corpse": {"f": 3},
    "or-second-xz": {"f": 3},
    "simultaneous": {"eps": 3, "f": 2},
}

#: leading infidelity coefficients of the 180 degree sequences.  corpse is
#: the exact (2 sqrt(3) - pi)^2 / 32 of its second-order residual, not the
#: printed value, which drops a factor pi.
CLOSED_FORMS = {
    ("bb1", "eps"): 5 * PI**6 / 1024,
    ("or-first", "f"): (60 + PI**2) / 32,
    ("corpse", "f"): (2 * math.sqrt(3) - PI) ** 2 / 32,
    ("simultaneous", "eps"): 5 * PI**6 / 1024,
    ("simultaneous", "f"): 15 / 8,
}
SIMULTANEOUS_CROSS = 169 * PI**2 / 32  # eps^2 f^2 coefficient of the surface

#: third-order phase pair of sk3, radians
SK3_PHI3 = math.acos((math.sqrt(40) / 2048) ** (1 / 3))
SK3_DELTA = PI - math.atan(math.sqrt(15) / 5)

#: degree-3 sigma norm of bb1 at 180 degrees
BB1_DEGREE3_NORM_180 = PI**3 * math.sqrt(40) / 64

#: published crossover of bb1 against sk2rot, degrees, and how near counts
PUBLISHED_CROSSOVER_DEG = 168.0
CROSSOVER_NEAR_DEG = 1.0

AXIS_KIND = {"eps": "ple", "f": "ore"}


def _pulse_matrix(theta, phi, kind, eps, f):
    """exp(-i theta m/2 n.sigma) with the error model's tilted axis n."""
    theta, phi = mpf(theta), mpf(phi)
    if kind == "ple":
        w, fz = 1 + eps, mpf(0)
    elif kind == "ore":
        w, fz = mpf(1), f
    else:
        w, fz = 1 + eps, f
    m = mpmath.sqrt(w * w + fz * fz)
    c = mpmath.cos(theta * m / 2)
    s = mpmath.sin(theta * m / 2) / m
    sx, sy = s * w * mpmath.cos(phi), s * w * mpmath.sin(phi)
    sz = s * fz
    return [[mpmath.mpc(c, -sz), mpmath.mpc(-sy, -sx)], [mpmath.mpc(sy, -sx), mpmath.mpc(c, sz)]]


def _mul(a, b):
    return [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]


def residual_matrix(pulses, target, kind, eps, f):
    """V(eps, f) U(target)^dag for chronological (angle, phase) pairs."""
    eps, f = mpf(eps), mpf(f)
    v = None
    for angle, phase in pulses:
        p = _pulse_matrix(angle, phase, kind, eps, f)
        v = p if v is None else _mul(p, v)
    u = _pulse_matrix(target[0], target[1], "ple", mpf(0), mpf(0))
    u_dag = [[mpmath.conj(u[0][0]), mpmath.conj(u[1][0])], [mpmath.conj(u[0][1]), mpmath.conj(u[1][1])]]
    return _mul(v, u_dag)


def infidelity(pulses, target, kind, eps, f, dps=40):
    """1 - |Tr(V U^dag)|/2 at ``dps`` significant digits, as a float."""
    with mp.workdps(dps):
        a = residual_matrix(pulses, target, kind, eps, f)
        return float(1 - abs(a[0][0] + a[1][1]) / 2)


def _sigma(a):
    """Pauli sigma components (cx, cy, cz) of a 2x2 matrix."""
    return (
        (a[0][1] + a[1][0]) / 2,
        1j * (a[0][1] - a[1][0]) / 2,
        (a[0][0] - a[1][1]) / 2,
    )


def sigma_term(pulses, target, axis, n, x=1e-3, dps=40):
    """Sigma components of the x^n term of the residual along one axis.

    ``n`` must be the residual's error order, so that lower terms vanish.
    The part of the residual with the parity of n, less its zero-error
    value for even n, is A_n x^n + A_(n+2) x^(n+2) + ...; dividing by x^n
    and one Richardson step between x and x/2 leave A_n to O(x^4).
    Subtracting the zero-error value also removes the residue of about
    1e-16 that float pulse angles leave there.
    """
    kind = AXIS_KIND[axis]
    sign = 1 if n % 2 == 0 else -1

    def at(h):
        e, f = (h, 0) if axis == "eps" else (0, h)
        return _sigma(residual_matrix(pulses, target, kind, e, f))

    with mp.workdps(dps):
        zero = at(mpf(0)) if sign == 1 else (0, 0, 0)

        def part(h):
            return [((p + sign * m) / 2 - z) / h**n for p, m, z in zip(at(h), at(-h), zero)]

        h = mpf(x)
        return [(4 * q - p) / 3 for p, q in zip(part(h), part(h / 2))]


def leading_coefficient(pulses, target, axis, order):
    """c in infidelity = c x^(2 order) + ...: |A_order|^2 / 2.

    The residual is in SU(2), a0 I - i a.sigma with a0 and a real, so its
    infidelity 1 - |a0| is |a|^2 / 2 to leading order.
    """
    return float(sum(abs(c) ** 2 for c in sigma_term(pulses, target, axis, order)) / 2)


def degree3_norm(pulses, target):
    """Norm of the eps^3 sigma term of a second-order-correct residual."""
    return float(mpmath.sqrt(sum(abs(c) ** 2 for c in sigma_term(pulses, target, "eps", 3))))


def bb1_pulses(theta):
    """bb1 from its defining phases, chronological (angle, phase) pairs."""
    phi = math.acos(-theta / (4 * PI))
    return [(theta, 0.0), (PI, phi), (2 * PI, 3 * phi), (PI, phi)]


def crossover(variant_a, variant_b, lo, hi, tol=1e-10):
    """Angle in [lo, hi] where the degree-3 norms of two variants cross.

    Each variant maps an angle to the (pulses, target) of its sequence.
    """

    def diff(theta):
        return degree3_norm(*variant_a(theta)) - degree3_norm(*variant_b(theta))

    d_lo = diff(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        d_mid = diff(mid)
        if (d_mid < 0) == (d_lo < 0):
            lo, d_lo = mid, d_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
