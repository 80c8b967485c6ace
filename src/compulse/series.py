"""Truncated bivariate power series over the two error fractions.

A :class:`ScalarSeries` stores complex coefficients c[i, j] of eps^i * f^j for
all exponent pairs with total degree i + j <= N; arithmetic never creates or
reads terms beyond N, so the ring operations are exact on the retained
coefficients.  A :class:`MatrixSeries` is an SU(2)-form 2x2 matrix of scalar
series, held as its Cayley-Klein pair (alpha, beta), and is the symbolic
counterpart of a propagator: expanding each pulse in closed
axis-angle form and multiplying the per-pulse series gives the exact Taylor
expansion of a composite sequence, from which residual error terms, their
order, and the leading infidelity coefficient are read off directly.

This module is the oracle behind every order and coefficient claim; the
``verify`` module cross-checks it with plain matrix arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .su2 import (
    OFF_RESONANCE,
    PULSE_LENGTH,
    SIMULTANEOUS,
    ErrorModel,
    Pulse,
    adjoint,
    rotation,
)

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

    def degree_terms(self, d: int) -> list[tuple[int, int, complex]]:
        """All (i, j, coefficient) with i + j == d."""
        return [(i, d - i, complex(self.c[i, d - i])) for i in range(d + 1)]

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


def _taylor_table(fn: str, n: int) -> list[float]:
    """Maclaurin coefficients of the named analytic function, orders 0..n."""
    t = [0.0] * (n + 1)
    if fn == "sin":
        for k in range(1, n + 1, 2):
            t[k] = (-1.0) ** ((k - 1) // 2) / math.factorial(k)
    elif fn == "cos":
        for k in range(0, n + 1, 2):
            t[k] = (-1.0) ** (k // 2) / math.factorial(k)
    elif fn == "sqrt1p":
        b = 1.0
        t[0] = 1.0
        for k in range(1, n + 1):
            b *= (1.5 - k) / k
            t[k] = b
    elif fn == "recip1p":
        for k in range(n + 1):
            t[k] = (-1.0) ** k
    else:
        raise ValueError(f"unknown analytic function {fn!r}")
    return t


def compose_analytic(g: ScalarSeries, fn: str) -> ScalarSeries:
    """Taylor composition fn(g) for fn in {sin, cos, sqrt1p, recip1p}.

    ``sqrt1p`` means sqrt(1 + g) and ``recip1p`` means 1/(1 + g).  The inner
    series must have zero constant term, so the composition is a finite sum
    of powers of g up to the truncation degree.
    """
    if g.c[0, 0] != 0.0:
        raise ValueError("compose_analytic requires a zero constant term")
    t = _taylor_table(fn, g.degree)
    out = ScalarSeries.constant(t[g.degree], g.degree)
    for k in range(g.degree - 1, -1, -1):
        out = out * g + t[k]
    return out


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
        total = 0.0
        for i in range(d + 1):
            _, tx, ty, tz = self.pauli_term(i, d - i)
            total += abs(tx) ** 2 + abs(ty) ** 2 + abs(tz) ** 2
        return math.sqrt(total)


def _model_kind(model) -> str:
    kind = model.kind if isinstance(model, ErrorModel) else model
    if kind not in (PULSE_LENGTH, OFF_RESONANCE, SIMULTANEOUS):
        raise ValueError(f"unknown error model kind {kind!r}")
    return kind


def propagator_series(pulse: Pulse, model, degree: int = DEFAULT_DEGREE) -> MatrixSeries:
    """Exact truncated Taylor expansion of a single erroneous pulse.

    The propagator is written in axis-angle form cos(a) I - i sin(a) n.sigma
    with a = theta*m/2 and m = sqrt((1+eps)^2 + f^2) (the pieces that apply to
    the chosen model), then a and n are expanded by series composition.  The
    result evaluated at small error fractions matches the exact propagator up
    to the first dropped degree.

    ``model`` may be an :class:`ErrorModel` or one of the kind strings "ple",
    "ore", "sim".
    """
    kind = _model_kind(model)
    half = pulse.angle / 2.0
    if kind == PULSE_LENGTH:
        h = ScalarSeries.variable("eps", degree)  # m - 1 with m = 1 + eps
    else:
        if pulse.flipped:
            raise ValueError(
                "off-resonance expansions are defined for nonnegative angles only; "
                "this pulse was built from a negative-angle request"
            )
        f = ScalarSeries.variable("f", degree)
        if kind == OFF_RESONANCE:
            u = f * f
        else:
            e = ScalarSeries.variable("eps", degree)
            u = e * 2.0 + e * e + f * f
        h = compose_analytic(u, "sqrt1p") - 1.0  # m - 1, zero constant term
    # cos and sin of a = half * (1 + h) by angle addition about half
    cg = compose_analytic(h * half, "cos")
    sg = compose_analytic(h * half, "sin")
    c0, s0 = math.cos(half), math.sin(half)
    ca = cg * c0 - sg * s0
    sa = cg * s0 + sg * c0
    # beta = -i (vx + i vy) with (vx, vy) = transverse * (cos(phi), sin(phi))
    phase = complex(math.sin(pulse.phase), -math.cos(pulse.phase))
    if kind == PULSE_LENGTH:
        return MatrixSeries(ca, sa * phase)
    s_over_m = sa * compose_analytic(h, "recip1p")
    transverse = s_over_m * (e + 1.0) if kind == SIMULTANEOUS else s_over_m
    return MatrixSeries(ca - 1j * (s_over_m * f), transverse * phase)


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

    Computed as sqrt(T * conj(T)) with T the half trace, the square root taken
    by series composition about the unit-modulus constant term.  The constant
    term must be within 1e-9 of unit modulus.
    """
    t = a.half_trace()
    g = t * t.conjugate()
    g0 = g.coeff(0, 0).real
    if abs(math.sqrt(max(g0, 0.0)) - 1.0) > 1e-9:
        raise ValueError("not a residual series: degree-0 half trace is not unit modulus")
    h = g * (1.0 / g0) - 1.0
    out = compose_analytic(h, "sqrt1p") * math.sqrt(g0)
    return ScalarSeries(a.degree, out.c.real.astype(complex))


def leading_error(a: MatrixSeries, zero_tol: float = 1e-10) -> ErrorTermReport:
    """Locate the lowest-degree nonzero sigma component of a residual series.

    Also reports the leading infidelity term, which sits at twice the error
    order whenever the leading sigma vector is nonzero.
    """
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

    fid = fidelity_series(a)
    infid_degree = None
    infid_coeff = None
    for d in range(1, a.degree + 1):
        total = sum(abs(v) for _, _, v in fid.degree_terms(d))
        if total > zero_tol:
            infid_degree = d
            infid_coeff = -sum(v.real for _, _, v in fid.degree_terms(d))
            break
    return ErrorTermReport(order, pauli, infid_degree, infid_coeff, a.degree)
