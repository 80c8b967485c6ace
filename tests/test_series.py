"""Truncated series engine: arithmetic, composition, residuals, fidelity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compulse import (
    ErrorModel,
    MatrixSeries,
    Pulse,
    ScalarSeries,
    compose,
    fidelity_series,
    leading_error,
    propagator_series,
    residual,
    sequence_series,
)
from compulse.sequences import bb1, build, corpse, ple_pure_error, short_corpse
from compulse.series import _m2_taylor
from compulse.su2 import OFF_RESONANCE, PULSE_LENGTH, SIMULTANEOUS

from conftest import maxdiff

PI = math.pi


def eps_var(n=8):
    return ScalarSeries.variable("eps", n)


def f_var(n=8):
    return ScalarSeries.variable("f", n)


class TestScalarArithmetic:
    def test_one_plus_eps_times_one_minus_eps(self):
        e = eps_var()
        prod = (e + 1.0) * (1.0 - e)
        assert prod.coeff(0, 0) == 1.0
        assert prod.coeff(1, 0) == 0.0
        assert prod.coeff(2, 0) == -1.0

    def test_degree_overflow_dropped(self):
        e = eps_var(8)
        e4 = e * e * e * e
        e5 = e4 * e
        assert maxdiff((e4 * e5).c, np.zeros((9, 9))) == 0.0

    def test_one_plus_f_squared(self):
        f = f_var(4)
        sq = (f + 1.0) * (f + 1.0)
        assert sq.coeff(0, 0) == 1.0
        assert sq.coeff(0, 1) == 2.0
        assert sq.coeff(0, 2) == 1.0

    def test_mismatched_degrees_rejected(self):
        with pytest.raises(ValueError):
            eps_var(4) * eps_var(6)
        with pytest.raises(ValueError):
            eps_var(4) + eps_var(6)

    def test_evaluate(self):
        s = (eps_var(5) * 2.0 + 1.0) * f_var(5)
        assert s(0.5, 0.25) == pytest.approx(0.25 * (1 + 1.0))

    def test_conjugate(self):
        s = eps_var(3) * (1 + 2j)
        assert s.conjugate().coeff(1, 0) == 1 - 2j

    @given(
        a=st.lists(st.floats(-3, 3), min_size=6, max_size=6),
        b=st.lists(st.floats(-3, 3), min_size=6, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_product_coefficients_are_convolutions(self, a, b):
        n = 5
        sa, sb = ScalarSeries(n), ScalarSeries(n)
        for i in range(3):
            sa.c[i, i // 2] = a[i]
            sb.c[i // 2, i] = b[i]
        prod = sa * sb
        for k, l in ((2, 2), (1, 3), (3, 0)):
            direct = sum(
                sa.c[i, j] * sb.c[k - i, l - j] for i in range(k + 1) for j in range(l + 1)
            )
            assert prod.coeff(k, l) == pytest.approx(direct, abs=1e-12)


class TestClosedFormCoefficients:
    @pytest.mark.parametrize("c", [0.0, 0.7, PI, 2 * PI, 4 * PI, 31.4])
    def test_recurrence_vs_mpmath(self, c, mp):
        # Taylor coefficients at x = 1 of cos(c sqrt(x)) and sin(c sqrt(x))/sqrt(x)
        n = 16
        cos_coeffs, sinc_coeffs = _m2_taylor(c, n)
        for got, fn in (
            (cos_coeffs, lambda x: mp.cos(c * mp.sqrt(x))),
            (sinc_coeffs, lambda x: mp.sin(c * mp.sqrt(x)) / mp.sqrt(x)),
        ):
            oracle = [float(v) for v in mp.taylor(fn, 1, n)]
            tol = 1e-15 * max(1.0, max(abs(v) for v in oracle))
            assert len(got) == n + 1
            assert max(abs(g - v) for g, v in zip(got, oracle)) <= tol


class TestPropagatorSeries:
    def test_two_pi_pulse_length_low_degrees(self):
        ms = propagator_series(Pulse(2 * PI, 0.0), PULSE_LENGTH, degree=2)
        c0, cx, cy, cz = ms.pauli_term(0, 0)
        assert c0 == pytest.approx(-1.0, abs=1e-14)
        c0, cx, cy, cz = ms.pauli_term(1, 0)
        assert cx == pytest.approx(1j * PI, abs=1e-12)
        assert abs(c0) < 1e-12 and abs(cy) < 1e-12 and abs(cz) < 1e-12

    @pytest.mark.parametrize("theta", [0.9, PI / 2, PI])
    def test_off_resonance_first_order_residual(self, theta):
        a = residual([Pulse(theta, 0.0)], Pulse(theta, 0.0), OFF_RESONANCE, degree=1)
        _, cx, cy, cz = a.pauli_term(0, 1)
        assert cz == pytest.approx(-1j * math.sin(theta) / 2, abs=1e-12)
        assert cy == pytest.approx(1j * math.sin(theta / 2) ** 2, abs=1e-12)
        assert abs(cx) < 1e-12

    def test_pi_pulse_length_first_order_residual(self):
        a = residual([Pulse(PI, 0.0)], Pulse(PI, 0.0), PULSE_LENGTH, degree=1)
        _, cx, cy, cz = a.pauli_term(1, 0)
        assert cx == pytest.approx(-1j * PI / 2, abs=1e-12)
        assert abs(cy) < 1e-12 and abs(cz) < 1e-12

    @pytest.mark.parametrize("theta", [0.7, PI / 2, PI, 2.5])
    def test_ple_alpha_vs_mpmath(self, theta, mp):
        # alpha of a ple pulse is the eps-expansion of cos(theta (1+eps) / 2)
        n = 6
        ms = propagator_series(Pulse(theta, 0.3), PULSE_LENGTH, n)
        oracle = mp.taylor(lambda e: mp.cos(theta * (1 + e) / 2), 0, n)
        for k in range(n + 1):
            assert ms.alpha.coeff(k, 0) == pytest.approx(float(oracle[k]), abs=1e-14)

    def test_ore_beta_vs_mpmath(self, mp):
        # at phase pi/2, beta of an ore pulse is sin(theta m/2)/m, m = sqrt(1+f^2)
        n, theta = 6, 2.5
        ms = propagator_series(Pulse(theta, PI / 2), OFF_RESONANCE, n)
        oracle = mp.taylor(lambda x: mp.sin(theta * mp.sqrt(1 + x**2) / 2) / mp.sqrt(1 + x**2), 0, n)
        for k in range(n + 1):
            assert ms.beta.coeff(0, k).real == pytest.approx(float(oracle[k]), abs=1e-14)

    def test_flipped_pulse_rejected_off_resonance(self):
        match = "off-resonance propagators are defined for nonnegative angles only"
        with pytest.raises(ValueError, match=match):
            propagator_series(Pulse(-1.0, 0.0), OFF_RESONANCE, degree=2)

    @pytest.mark.parametrize(
        "angle,kind,eps,f",
        [
            (2.2, PULSE_LENGTH, 1e-3, 0.0),
            (2.2, OFF_RESONANCE, 0.0, 1e-3),
            (2.2, SIMULTANEOUS, 1e-3, 1e-3),
            (-2.2, PULSE_LENGTH, 1e-3, 0.0),  # flipped: phase 0.9 + pi
        ],
        ids=["ple-0.001-0.0", "ore-0.0-0.001", "sim-0.001-0.001", "ple-flipped"],
    )
    @pytest.mark.parametrize("degree", [2, 3])
    def test_matches_exact_propagator_at_small_error(self, angle, kind, eps, f, degree):
        p = Pulse(angle, 0.9)
        ms = propagator_series(p, kind, degree)
        exact = compose([p], ErrorModel(kind, epsilon=eps, f=f))
        tol = max(10 * (1e-3) ** (degree + 1), 1e-12)
        assert maxdiff(ms.evaluate(eps, f), exact) < tol


class TestMatrixSeries:
    def test_identity_is_neutral(self):
        a = propagator_series(Pulse(1.1, 0.4), PULSE_LENGTH, 4)
        prod = a * MatrixSeries.identity(4)
        for i in range(2):
            for j in range(2):
                assert maxdiff(prod.entry(i, j).c, a.entry(i, j).c) == 0.0

    def test_pulse_length_inverse_pair_is_identity_series(self):
        theta = 1.3
        ms = sequence_series(
            [Pulse(theta, 0.0), Pulse(theta, PI)], PULSE_LENGTH, degree=8
        )
        ident = MatrixSeries.identity(8)
        for i in range(2):
            for j in range(2):
                assert maxdiff(ms.entry(i, j).c, ident.entry(i, j).c) < 1e-13

    def test_product_of_truncations_is_truncation_of_product(self):
        p1, p2 = Pulse(1.9, 0.2), Pulse(0.7, 2.1)
        low = propagator_series(p1, SIMULTANEOUS, 4) * propagator_series(p2, SIMULTANEOUS, 4)
        high = propagator_series(p1, SIMULTANEOUS, 8) * propagator_series(p2, SIMULTANEOUS, 8)
        idx = np.arange(5)
        tri = idx[:, None] + idx[None, :] <= 4
        for i in range(2):
            for j in range(2):
                assert maxdiff(low.entry(i, j).c * tri, high.entry(i, j).c[:5, :5] * tri) < 1e-14

    def test_degree_pauli_norm_does_not_overflow(self):
        a = MatrixSeries.identity(4)
        a.beta.c[1, 1] = 3e200
        a.beta.c[0, 2] = 4e200j
        assert a.degree_pauli_norm(2) == pytest.approx(5e200)

    def test_from_matrix_rejects_non_cayley_klein_form(self):
        with pytest.raises(ValueError):
            MatrixSeries.from_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]), 4)

    def test_series_unitarity(self):
        seq = bb1(PI)
        a = residual(seq.pulses, seq.target, PULSE_LENGTH, degree=8)
        prod = a * a.conj_transpose()
        ident = MatrixSeries.identity(8)
        for i in range(2):
            for j in range(2):
                assert maxdiff(prod.entry(i, j).c, ident.entry(i, j).c) < 1e-11


class TestResiduals:
    @pytest.mark.parametrize("theta", [0.8, PI / 2, PI])
    def test_first_order_error_isolation(self, theta):
        a = residual([Pulse(theta, 0.0)], Pulse(theta, 0.0), PULSE_LENGTH, degree=2)
        _, cx, cy, cz = a.pauli_term(1, 0)
        assert cx == pytest.approx(-1j * theta / 2, abs=1e-12)
        assert abs(cy) < 1e-12 and abs(cz) < 1e-12

    @pytest.mark.parametrize("theta", [PI / 4, PI / 2, PI, 3 * PI / 2])
    def test_second_order_error_after_first_order_fix(self, theta):
        seq = build("sk1", theta)
        a = residual(seq.pulses, seq.target, PULSE_LENGTH, degree=2)
        assert a.degree_pauli_norm(1) < 1e-10
        _, cx, cy, cz = a.pauli_term(2, 0)
        expected = -1j * theta * math.sqrt(16 * PI**2 - theta**2) / 8
        assert cz == pytest.approx(expected, abs=1e-9)
        assert abs(cx) < 1e-9 and abs(cy) < 1e-9

    def test_off_resonance_second_order_after_first_order_fix(self):
        seq = build("or-first", PI)
        a = residual(seq.pulses, seq.target, OFF_RESONANCE, degree=2)
        assert a.degree_pauli_norm(1) < 1e-10
        _, cx, cy, cz = a.pauli_term(0, 2)
        assert cz == pytest.approx(-1j * math.sqrt(15) / 2, abs=1e-9)
        assert cx == pytest.approx(-1j * PI / 4, abs=1e-9)
        assert abs(cy) < 1e-9
        mag = math.sqrt(abs(cx) ** 2 + abs(cy) ** 2 + abs(cz) ** 2)
        assert mag == pytest.approx(math.sqrt(60 + PI**2) / 4, abs=1e-9)

    @pytest.mark.parametrize("phi", [0.3, 0.7, 1.1, 2.0, 2.6])
    def test_group_commutator_second_order(self, phi):
        seq = ple_pure_error("z2", phi)
        a = residual(seq.pulses, seq.target, PULSE_LENGTH, degree=2)
        assert a.degree_pauli_norm(1) < 1e-10
        _, cx, cy, cz = a.pauli_term(2, 0)
        assert cz == pytest.approx(-8j * PI**2 * math.cos(phi) ** 2, abs=1e-9)
        assert abs(cx) < 1e-10 and abs(cy) < 1e-10


class TestLeadingError:
    def test_bb1_order(self):
        seq = bb1(PI)
        rep = leading_error(residual(seq.pulses, seq.target, PULSE_LENGTH, 8))
        assert rep.order == 3
        assert rep.infidelity_degree == 6

    def test_corpse_order(self):
        seq = corpse(PI)
        rep = leading_error(residual(seq.pulses, seq.target, OFF_RESONANCE, 8))
        assert rep.order == 2
        assert rep.infidelity_degree == 4

    def test_identity_series_sentinel(self):
        rep = leading_error(MatrixSeries.identity(6))
        assert rep.order is None
        assert rep.pauli is None
        assert rep.infidelity_coefficient is None

    def test_rejects_non_finite_coefficients(self):
        a = MatrixSeries.identity(4)
        a.beta.c[3, 0] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            leading_error(a)

    def test_rejects_non_residual(self):
        ms = propagator_series(Pulse(1.0, 0.0), PULSE_LENGTH, 4)  # not unit at 0
        with pytest.raises(ValueError):
            leading_error(ms)

    # mpmath (40 digits) composition of the same float pulses: |c_2|^2 / 2
    @pytest.mark.parametrize("name, want", [("sk2", 2.8523331079333e-14), ("sk2rot", 2.85233309892102e-14)])
    @pytest.mark.parametrize("degree", [8, 12, 16])
    def test_small_leading_term_at_720(self, name, want, degree):
        # sk2 and sk2rot at 4 pi with phi2 = pi/2 - 5.5e-5 instead of pi/2:
        # the degree-2 sigma norm is ~2.4e-7, so the degree-4 infidelity term
        # lies below zero_tol; it must still be reported, not rounding noise
        phi2 = PI / 2 - 5.5e-5
        pulses = [Pulse(4 * PI, 0.0), *ple_pure_error("x1", PI).pulses]
        if name == "sk2":
            pulses += ple_pure_error("z2prime", phi2).pulses
        else:
            x2 = ple_pure_error("x2prime", phi2).pulses
            pulses += [Pulse(PI / 2, PI / 2), *x2, Pulse(PI / 2, 3 * PI / 2)]
        rep = leading_error(residual(pulses, Pulse(4 * PI, 0.0), PULSE_LENGTH, degree))
        assert rep.order == 2
        assert rep.infidelity_degree == 4
        assert rep.infidelity_coefficient == pytest.approx(want, rel=1e-6)

    def test_infidelity_degree_beyond_series_degree(self):
        seq = bb1(PI)
        rep = leading_error(residual(seq.pulses, seq.target, PULSE_LENGTH, 5))
        assert rep.order == 3
        assert rep.infidelity_degree is None
        assert rep.infidelity_coefficient is None

    @pytest.mark.parametrize("name", ["bb1", "sk2rot", "corpse", "or-second-xz"])
    def test_coefficient_matches_fidelity_series(self, name):
        seq = build(name, PI)
        res = residual(seq.pulses, seq.target, seq.model_kind, 8)
        rep = leading_error(res)
        i, j = (rep.infidelity_degree, 0) if seq.model_kind == PULSE_LENGTH else (0, rep.infidelity_degree)
        want = -fidelity_series(res).coeff(i, j).real
        assert rep.infidelity_coefficient == pytest.approx(want, rel=1e-11)


class TestFidelitySeries:
    def test_bb1_coefficient(self):
        seq = bb1(PI)
        fid = fidelity_series(residual(seq.pulses, seq.target, PULSE_LENGTH, 8))
        expected = 5 * PI**6 / 1024
        assert -fid.coeff(6, 0).real == pytest.approx(expected, rel=1e-6)

    def test_corpse_coefficient_closed_form(self):
        # |A2|^2 / 2 with A2 = i (2 sqrt(3) - pi)/4 sigma_x
        seq = corpse(PI)
        fid = fidelity_series(residual(seq.pulses, seq.target, OFF_RESONANCE, 8))
        expected = (2 * math.sqrt(3) - PI) ** 2 / 32
        assert -fid.coeff(0, 4).real == pytest.approx(expected, rel=1e-6)

    def test_short_corpse_coefficient_closed_form(self):
        seq = short_corpse(PI)
        fid = fidelity_series(residual(seq.pulses, seq.target, OFF_RESONANCE, 8))
        expected = (2 * math.sqrt(3) + PI) ** 2 / 32
        assert -fid.coeff(0, 4).real == pytest.approx(expected, rel=1e-6)

    def test_or_first_coefficient(self):
        seq = build("or-first", PI)
        fid = fidelity_series(residual(seq.pulses, seq.target, OFF_RESONANCE, 8))
        assert -fid.coeff(0, 4).real == pytest.approx((60 + PI**2) / 32, rel=1e-6)

    def test_rejects_non_unit_constant(self):
        half = MatrixSeries.from_matrix(np.eye(2) * 0.5, 4)
        with pytest.raises(ValueError):
            fidelity_series(half)


MODEL_VALUE = {
    PULSE_LENGTH: ErrorModel.pulse_length(1e-3),
    OFF_RESONANCE: ErrorModel.off_resonance(1e-3),
    SIMULTANEOUS: ErrorModel.simultaneous(1e-3, 1e-3),
}


class TestOracleConsistency:
    @pytest.mark.parametrize("name", ["simple", "bb1", "corpse", "or-first"])
    @pytest.mark.parametrize("degree", [2, 3])
    def test_series_vs_exact_small_degrees(self, name, degree):
        seq = build(name, PI)
        ms = sequence_series(seq.pulses, seq.model_kind, degree)
        exact = compose(seq.pulses, MODEL_VALUE[seq.model_kind])
        tol = max(10 * (1e-3) ** (degree + 1), 1e-12)
        assert maxdiff(ms.evaluate(1e-3, 1e-3), exact) < tol

    @pytest.mark.parametrize("name", ["sk1", "sk2rot", "simultaneous"])
    @pytest.mark.parametrize("degree", [2, 3])
    def test_truncation_error_scaling(self, name, degree):
        # sequences whose dropped-degree coefficient exceeds 10: verify the
        # truncation ORDER instead, diff(x)/diff(x/2) = 2^(degree+1)
        seq = build(name, PI)
        ms = sequence_series(seq.pulses, seq.model_kind, degree)

        def gap(x):
            model = {
                PULSE_LENGTH: ErrorModel.pulse_length(x),
                OFF_RESONANCE: ErrorModel.off_resonance(x),
                SIMULTANEOUS: ErrorModel.simultaneous(x, x),
            }[seq.model_kind]
            return maxdiff(ms.evaluate(x, x), compose(seq.pulses, model))

        g1, g2 = gap(1e-3), gap(5e-4)
        assert g1 < 100 * (1e-3) ** (degree + 1)
        assert g1 / g2 == pytest.approx(2.0 ** (degree + 1), rel=0.1)

    @pytest.mark.parametrize("name", ["bb1", "sk2", "or-second-xz"])
    def test_order_infidelity_link(self, name):
        seq = build(name, PI)
        kind = seq.model_kind
        rep = leading_error(residual(seq.pulses, seq.target, kind, 8))
        assert rep.infidelity_degree == 2 * rep.order

    @given(
        pulses=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=4 * PI),
                st.floats(min_value=0.0, max_value=2 * PI),
            ),
            min_size=1,
            max_size=4,
        ),
        kind=st.sampled_from([PULSE_LENGTH, OFF_RESONANCE, SIMULTANEOUS]),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_sequences_series_vs_exact(self, pulses, kind):
        seq = [Pulse(a, p) for a, p in pulses]
        ms = sequence_series(seq, kind, degree=4)
        x = 1e-3
        exact = compose(seq, ErrorModel(
            kind,
            epsilon=x if kind in (PULSE_LENGTH, SIMULTANEOUS) else 0.0,
            f=x if kind in (OFF_RESONANCE, SIMULTANEOUS) else 0.0,
        ))
        # dropped degree-5 coefficients grow like (total angle / 2)^5 / 5!;
        # both sides round entries of size ~1, so a few ulps are added
        total = sum(p.angle for p in seq)
        bound = 10.0 * (1.0 + total / 2.0) ** 5 / 120.0 * x**5 + 4 * np.finfo(float).eps
        assert maxdiff(ms.evaluate(x, x), exact) < bound
