"""Truncated bivariate power series over the two error fractions.

A :class:`ScalarSeries` stores complex coefficients c[i, j] of eps^i * f^j for
all exponent pairs with total degree i + j <= N; arithmetic never creates or
reads terms beyond N, so the ring operations are exact on the retained
coefficients.  A :class:`MatrixSeries` is an SU(2)-form 2x2 matrix of scalar
series, held as its Cayley-Klein pair (alpha, beta), and is the symbolic
counterpart of a propagator.  Every pulse, under every error model, is one
closed form in x = m^2 = (1 + eps)^2 + f^2: alpha and beta are built from
cos(theta sqrt(x)/2) and sin(theta sqrt(x)/2)/sqrt(x), which are entire in x,
so their Taylor coefficients follow from one recurrence and are summed over
the powers of u = x - 1.  Multiplying the per-pulse series gives the exact
Taylor expansion of a composite sequence, from which residual error terms,
their order, and the leading infidelity coefficient (|c_n|^2 / 2 for the
leading sigma coefficient c_n) are read off directly; the fidelity |Tr(A)/2|
of a residual A is the series +-Re(alpha).

This module is the oracle behind every order and coefficient claim; the
``verify`` module cross-checks it with plain matrix arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .su2 import OFF_RESONANCE, PULSE_LENGTH, Pulse, adjoint, flipped_pulse_error, kind_of, rotation

DEFAULT_DEGREE = 8

_masks: dict[int, np.ndarray] = {}


def _mask(degree: int) -> np.ndarray:
    """Boolean triangle i + j <= degree, cached per degree."""
    m = _masks.get(degree)
    if m is None:
        idx = np.arange(degree + 1)
        m = idx[:, None] + idx[None, :] <= degree
        _masks[degree] = m
    return m


class ScalarSeries:
    """Dense truncated power series in (eps, f) with complex coefficients."""

    __slots__ = ("degree", "c")

    def __init__(self, degree: int, coeffs: np.ndarray | None = None):
        if degree < 0:
            raise ValueError("series degree must be nonnegative")
        self.degree = int(degree)
        if coeffs is None:
            self.c = np.zeros((degree + 1, degree + 1), dtype=complex)
        else:
            c = np.array(coeffs, dtype=complex)
            if c.shape != (degree + 1, degree + 1):
                raise ValueError(f"coefficient array shape {c.shape} does not match degree {degree}")
            c[~_mask(degree)] = 0.0
            self.c = c

    @classmethod
    def constant(cls, value: complex, degree: int) -> "ScalarSeries":
        s = cls(degree)
        s.c[0, 0] = value
        return s

    @classmethod
    def variable(cls, name: str, degree: int) -> "ScalarSeries":
        """The series eps (name="eps") or f (name="f")."""
        if degree < 1:
            raise ValueError("need degree >= 1 to represent a variable")
        s = cls(degree)
        if name == "eps":
            s.c[1, 0] = 1.0
        elif name == "f":
            s.c[0, 1] = 1.0
        else:
            raise ValueError(f"unknown variable {name!r}")
        return s

    def _check(self, other: "ScalarSeries") -> None:
        if self.degree != other.degree:
            raise ValueError(f"mismatched series degrees {self.degree} and {other.degree}")

    def __add__(self, other):
        if isinstance(other, ScalarSeries):
            self._check(other)
            return ScalarSeries(self.degree, self.c + other.c)
        out = self.c.copy()
        out[0, 0] += other
        return ScalarSeries(self.degree, out)

    __radd__ = __add__

    def __neg__(self):
        return ScalarSeries(self.degree, -self.c)

    def __sub__(self, other):
        if isinstance(other, ScalarSeries):
            self._check(other)
            return ScalarSeries(self.degree, self.c - other.c)
        out = self.c.copy()
        out[0, 0] -= other
        return ScalarSeries(self.degree, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, ScalarSeries):
            return ScalarSeries(self.degree, self.c * other)
        self._check(other)
        n = self.degree
        out = np.zeros_like(self.c)
        for i in range(n + 1):
            for j in range(n + 1 - i):
                a = self.c[i, j]
                if a == 0.0:
                    continue
                out[i:, j:] += a * other.c[: n + 1 - i, : n + 1 - j]
        out[~_mask(n)] = 0.0
        return ScalarSeries(n, out)

    __rmul__ = __mul__

    def conjugate(self) -> "ScalarSeries":
        """Coefficient-wise complex conjugate (the variables are real)."""
        return ScalarSeries(self.degree, self.c.conj())

    def coeff(self, i: int, j: int = 0) -> complex:
        if i + j > self.degree:
            raise ValueError(f"exponent pair ({i}, {j}) exceeds degree {self.degree}")
        return complex(self.c[i, j])

    def __call__(self, eps: float, f: float = 0.0) -> complex:
        pe = eps ** np.arange(self.degree + 1)
        pf = f ** np.arange(self.degree + 1)
        return complex(pe @ self.c @ pf)

    def __repr__(self):
        nz = [
            f"({i},{j}):{self.c[i, j]:.6g}"
            for i in range(self.degree + 1)
            for j in range(self.degree + 1 - i)
            if self.c[i, j] != 0.0
        ]
        return f"ScalarSeries(N={self.degree}, {{{', '.join(nz[:8])}{'...' if len(nz) > 8 else ''}}})"


class MatrixSeries:
    """SU(2)-form matrix series [[alpha, -conj(beta)], [beta, conj(alpha)]].

    Every pulse propagator and every product of them has this form, so the
    Cayley-Klein pair (alpha, beta) of scalar series describes it fully;
    ``conj`` acts coefficient-wise because the variables are real.
    """

    __slots__ = ("degree", "alpha", "beta")

    def __init__(self, alpha: ScalarSeries, beta: ScalarSeries):
        if alpha.degree != beta.degree:
            raise ValueError("matrix series entries must share one degree")
        self.degree = alpha.degree
        self.alpha = alpha
        self.beta = beta

    @classmethod
    def identity(cls, degree: int) -> "MatrixSeries":
        return cls(ScalarSeries.constant(1.0, degree), ScalarSeries(degree))

    @classmethod
    def from_matrix(cls, mat: np.ndarray, degree: int) -> "MatrixSeries":
        mat = np.asarray(mat)
        if mat[1, 1] != np.conj(mat[0, 0]) or mat[0, 1] != -np.conj(mat[1, 0]):
            raise ValueError("matrix is not of the form [[a, -conj(b)], [b, conj(a)]]")
        return cls(ScalarSeries.constant(mat[0, 0], degree), ScalarSeries.constant(mat[1, 0], degree))

    def entry(self, i: int, j: int) -> ScalarSeries:
        if j == 0:
            return self.beta if i else self.alpha
        return self.alpha.conjugate() if i else -self.beta.conjugate()

    def __mul__(self, other: "MatrixSeries") -> "MatrixSeries":
        a1, b1, a2, b2 = self.alpha, self.beta, other.alpha, other.beta
        return MatrixSeries(a1 * a2 - b1.conjugate() * b2, b1 * a2 + a1.conjugate() * b2)

    def conj_transpose(self) -> "MatrixSeries":
        """Adjoint for real variables: (alpha, beta) -> (conj(alpha), -beta)."""
        return MatrixSeries(self.alpha.conjugate(), -self.beta)

    def evaluate(self, eps: float, f: float = 0.0) -> np.ndarray:
        a, b = self.alpha(eps, f), self.beta(eps, f)
        return np.array([[a, -b.conjugate()], [b, a.conjugate()]], dtype=complex)

    def half_trace(self) -> ScalarSeries:
        return ScalarSeries(self.degree, self.alpha.c.real)

    def pauli_term(self, i: int, j: int) -> tuple[complex, complex, complex, complex]:
        """Pauli components (c0, cx, cy, cz) of the coefficient of eps^i f^j."""
        a = self.alpha.coeff(i, j)
        b = self.beta.coeff(i, j)
        # 0.0 - x rather than -x, so that a zero coefficient gives +0, not -0
        return (complex(a.real), complex(0.0, b.imag), (0.0 - b.real) * 1j, complex(0.0, a.imag))

    def degree_pauli(self, d: int) -> tuple[complex, complex, complex, complex]:
        """Pauli components of the total-degree-d part, summed over i + j = d."""
        c0 = cx = cy = cz = 0.0 + 0.0j
        for i in range(d + 1):
            t0, tx, ty, tz = self.pauli_term(i, d - i)
            c0 += t0
            cx += tx
            cy += ty
            cz += tz
        return (c0, cx, cy, cz)

    def degree_pauli_norm(self, d: int) -> float:
        """Root-sum-square of the sigma components over all exponent pairs at degree d."""
        parts = []
        for i in range(d + 1):
            _, tx, ty, tz = self.pauli_term(i, d - i)
            parts += (abs(tx), abs(ty), abs(tz))
        return math.hypot(*parts)


def _m2_taylor(c: float, degree: int) -> np.ndarray:
    """Taylor coefficients in u = x - 1 of C(x) = cos(c sqrt(x)) and S(x) = sin(c sqrt(x))/sqrt(x).

    Both are entire in x and solve 4x g'' + p g' + c^2 g = 0, with p = 2 for C
    and p = 6 for S, so their coefficients at x = 1 obey the three-term
    recurrence (k+1)(k+2) 4 g[k+2] = -((k+1)(4k+p) g[k+1] + c^2 g[k]).
    Returns the (2, degree + 1) array of C's and S's coefficients.
    """
    c2 = c * c
    cs, sn = math.cos(c), math.sin(c)
    out = []
    for p, g0, g1 in ((2, cs, -0.5 * c * sn), (6, sn, 0.5 * (c * cs - sn))):
        g = [g0, g1][: degree + 1]
        for k in range(degree - 1):
            g.append(-((k + 1) * (4 * k + p) * g[k + 1] + c2 * g[k]) / (4 * (k + 1) * (k + 2)))
        out.append(g)
    return np.array(out)


def propagator_series(pulse: Pulse, model, degree: int = DEFAULT_DEGREE) -> MatrixSeries:
    """Exact truncated Taylor expansion of a single erroneous pulse.

    With w = 1 + eps (ple, sim) or 1 (ore), f = 0 under ple, and
    x = m^2 = w^2 + f^2 = 1 + u, the propagator's Cayley-Klein pair is
    alpha = C(x) - i f S(x) and beta = w S(x) (sin(phi) - i cos(phi)), where
    C(x) = cos(theta sqrt(x)/2) and S(x) = sin(theta sqrt(x)/2)/sqrt(x).  Both
    are entire in x, so one recurrence gives their coefficients in u
    (:func:`_m2_taylor`) and one sum over the powers of u expands them, for
    every error model.  The result evaluated at small error fractions matches
    the exact propagator up to the first dropped degree.

    ``model`` may be an :class:`ErrorModel` or one of the kind strings "ple",
    "ore", "sim".
    """
    kind = kind_of(model)
    if kind != PULSE_LENGTH and pulse.flipped:
        raise flipped_pulse_error()
    coeffs = _m2_taylor(pulse.angle / 2.0, degree)
    if not np.isfinite(coeffs).all():
        raise ValueError(f"pulse angle {pulse.angle:g} is too large for a series expansion")
    one = ScalarSeries.constant(1.0, degree)
    w = one if kind == OFF_RESONANCE else ScalarSeries.variable("eps", degree) + 1.0
    f = ScalarSeries(degree) if kind == PULSE_LENGTH else ScalarSeries.variable("f", degree)
    u = w * w + f * f - 1.0
    powers = [one]
    for _ in range(degree):
        powers.append(u * powers[-1])
    c, s = (ScalarSeries(degree, g) for g in np.tensordot(coeffs, [p.c for p in powers], 1))
    phase = complex(math.sin(pulse.phase), -math.cos(pulse.phase))
    return MatrixSeries(c - 1j * (f * s), (w * s) * phase)


def sequence_series(pulses, model, degree: int = DEFAULT_DEGREE) -> MatrixSeries:
    """Series of a composed pulse sequence, first pulse as rightmost factor."""
    out = None
    for p in pulses:
        ps = propagator_series(p, model, degree)
        out = ps if out is None else ps * out
    if out is None:
        raise ValueError("cannot expand an empty pulse sequence")
    return out


def residual(pulses, target: Pulse, model, degree: int = DEFAULT_DEGREE) -> MatrixSeries:
    """Error part A = (series of the sequence) * U(target)^dag.

    At zero error A is a pure global phase; the lowest degree with a
    nonvanishing sigma component is the error order of the sequence.
    """
    seq = sequence_series(pulses, model, degree)
    tgt = MatrixSeries.from_matrix(adjoint(rotation(target.angle, target.phase)), degree)
    return seq * tgt


@dataclass(frozen=True)
class ErrorTermReport:
    """Leading residual error term and the infidelity it implies.

    ``order`` is None when no sigma component exceeds the tolerance at any
    degree up to the series degree ("order beyond N").  ``pauli`` holds the
    complex (cx, cy, cz) coefficients summed over the exponent pairs of the
    leading degree.
    """

    order: int | None
    pauli: tuple[complex, complex, complex] | None
    infidelity_degree: int | None
    infidelity_coefficient: float | None
    series_degree: int


def fidelity_series(a: MatrixSeries) -> ScalarSeries:
    """Fidelity |Tr(A)/2| of a residual series, as a real-coefficient series.

    The half trace of an SU(2) series is the real series Re(alpha), so the
    fidelity is sign(Re alpha_0) * Re(alpha), with no square root.  The
    constant term must be within 1e-9 of unit modulus.
    """
    t = a.half_trace()
    t0 = t.c[0, 0].real
    if abs(abs(t0) - 1.0) > 1e-9:
        raise ValueError("not a residual series: degree-0 half trace is not unit modulus")
    return t if t0 > 0.0 else -t


def leading_error(a: MatrixSeries, zero_tol: float = 1e-10) -> ErrorTermReport:
    """Locate the lowest-degree nonzero sigma component of a residual series.

    Also reports the leading infidelity term.  With the sigma part c_n x^n +
    ... (summed over the exponent pairs of each degree), the fidelity is
    sqrt(1 - |c|^2), so the infidelity starts as |c_n|^2 / 2 x^(2n).  Its
    degree is None when 2n exceeds the series degree.  Taken from c_n rather
    than from the fidelity series, the coefficient does not sink into
    rounding noise when c_n is small.
    """
    if not (np.isfinite(a.alpha.c).all() and np.isfinite(a.beta.c).all()):
        raise ValueError("not a residual series: non-finite coefficients")
    if a.degree_pauli_norm(0) > zero_tol or abs(abs(a.pauli_term(0, 0)[0]) - 1.0) > 1e-9:
        raise ValueError("not a residual series: degree-0 part is not a pure global phase")
    order = None
    pauli = None
    for d in range(1, a.degree + 1):
        if a.degree_pauli_norm(d) > zero_tol:
            order = d
            _, cx, cy, cz = a.degree_pauli(d)
            pauli = (cx, cy, cz)
            break
    if order is None:
        return ErrorTermReport(None, None, None, None, a.degree)

    if 2 * order > a.degree:
        return ErrorTermReport(order, pauli, None, None, a.degree)
    infid_coeff = sum(abs(c) ** 2 for c in pauli) / 2.0
    return ErrorTermReport(order, pauli, 2 * order, infid_coeff, a.degree)
