"""Truncated series engine: arithmetic, composition, residuals, fidelity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compulse.series
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

#: pulse angles in (0, 4pi], with the exact pi, 2pi and 4pi pulses drawn on purpose
ANGLES = st.one_of(st.sampled_from([PI, 2 * PI, 4 * PI]), st.floats(0.0, 4 * PI, exclude_min=True))


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
        assert maxdiff((e4 * e5).c, np.zeros(45)) == 0.0

    def test_square_coefficient_array_refused(self):
        with pytest.raises(ValueError, match="shape"):
            ScalarSeries(8, np.zeros((9, 9)))

    def test_constructor_copies_its_input(self):
        coeffs = np.arange(6, dtype=complex)
        s = ScalarSeries(2, coeffs)
        coeffs[:] = -1.0
        assert [s.coeff(i, j) for i, j in ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))] == list(range(6))

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

    def test_coeff_refuses_exponents_outside_the_triangle(self):
        seq = bb1(PI)
        res = residual(seq.pulses, seq.target, PULSE_LENGTH, 8)
        for i, j in ((-1, 0), (0, -1), (-2, 3), (9, 0), (4, 5)):
            with pytest.raises(ValueError):
                res.alpha.coeff(i, j)
            with pytest.raises(ValueError):
                res.pauli_term(i, j)

    def test_product_coefficients_are_convolutions(self):
        # The product must sum each coefficient in the lexicographic (i, j)
        # order of the left factor, bit for bit; the reference keeps that order.
        def lexicographic_product(a, b, n, i, j):
            # a and b as squares indexed [i, j]; the result back in the graded order of .c
            sa, sb, out = (np.zeros((n + 1, n + 1), dtype=complex) for _ in range(3))
            sa[i, j], sb[i, j] = a, b
            for k in range(n + 1):
                for m in range(n + 1 - k):
                    out[k:, m:] += sa[k, m] * sb[: n + 1 - k, : n + 1 - m]
            return out[i, j]

        rng = np.random.default_rng(20041118)
        for n in (0, 1, 5, 16):
            # exponents of the graded layout: by total degree, then by ascending i
            i, j = (np.array(e) for e in zip(*[(i, d - i) for d in range(n + 1) for i in range(d + 1)]))
            for content in ("one-variable", "bivariate", "zero-interleaved"):
                for _ in range(5):
                    a, b = (
                        ScalarSeries(n, rng.normal(size=(i.size, 2)) @ [1.0, 1j]
                                     * 10.0 ** rng.uniform(-6, 6, size=i.size))
                        for _ in range(2)
                    )
                    if content == "one-variable":
                        a.c[j > 0] = b.c[j > 0] = 0.0
                    elif content == "zero-interleaved":
                        a.c[i % 2 == 1] = b.c[j % 2 == 0] = 0.0
                    want = lexicographic_product(a.c, b.c, n, i, j)
                    assert np.array_equal((a * b).c, want), (n, content)


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

    def test_negative_angle_rejected_off_resonance(self):
        match = "off-resonance propagators are defined for nonnegative angles only"
        with pytest.raises(ValueError, match=match):
            propagator_series(Pulse(-1.0, 0.0), OFF_RESONANCE, degree=2)

    @pytest.mark.parametrize("theta", [-PI / 2, -1.1, -2.2])
    def test_negative_angle_matches_shifted_phase(self, theta):
        # U(theta, phi) = U(-theta, phi + pi) under pulse length errors too
        for phi in (0.0, 0.3, 4.5):
            a = propagator_series(Pulse(theta, phi), PULSE_LENGTH, 8)
            b = propagator_series(Pulse(-theta, phi + PI), PULSE_LENGTH, 8)
            assert maxdiff(a.alpha.c, b.alpha.c) < 1e-15 and maxdiff(a.beta.c, b.beta.c) < 1e-15
            for eps in (1e-3, 1e-2):
                assert maxdiff(a.evaluate(eps, 0.0), b.evaluate(eps, 0.0)) < 1e-15

    @pytest.mark.parametrize(
        "angle,kind,eps,f",
        [
            (2.2, PULSE_LENGTH, 1e-3, 0.0),
            (2.2, OFF_RESONANCE, 0.0, 1e-3),
            (2.2, SIMULTANEOUS, 1e-3, 1e-3),
            (-2.2, PULSE_LENGTH, 1e-3, 0.0),  # a signed angle, kept as given
        ],
        ids=["ple-0.001-0.0", "ore-0.0-0.001", "sim-0.001-0.001", "ple-negative"],
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
        for i in range(2):
            for j in range(2):
                # degrees 0..4 are the first 15 coefficients of the graded vector
                assert maxdiff(low.entry(i, j).c, high.entry(i, j).c[:15]) < 1e-14

    def test_degree_pauli_norm_does_not_overflow(self):
        a = MatrixSeries.identity(4)
        a.beta.c[4] = 3e200  # eps f
        a.beta.c[3] = 4e200j  # f^2
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
        a.beta.c[9] = math.nan  # eps^3
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

    def test_coefficient_independent_of_compensated_sum(self, monkeypatch):
        # the builtin sum compensates from Python 3.12 on (Neumaier); under that
        # rule a sum of |c|^2 would print 562.424553803174 here
        def neumaier(values, start=0):
            total, comp = float(start), 0.0
            for x in values:
                t = total + x
                comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
                total = t
            return total + comp

        monkeypatch.setattr(compulse.series, "sum", neumaier, raising=False)
        seq = build("sk2", 2 * PI)
        rep = leading_error(residual(seq.pulses, seq.target, PULSE_LENGTH, 8))
        assert repr(rep.infidelity_coefficient) == "562.4245538031739"


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
        nan = MatrixSeries(ScalarSeries.constant(math.nan, 4), ScalarSeries(4))
        for a in (half, nan):
            with pytest.raises(ValueError):
                fidelity_series(a)


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

    @settings(max_examples=32, derandomize=True, deadline=None)
    @given(st.lists(st.builds(Pulse, ANGLES, st.floats(0.0, 2 * PI, exclude_max=True)), min_size=1, max_size=16))
    def test_series_within_derived_remainder_of_compose(self, pulses):
        # Each pulse is exp(-i (theta/2) (G0 + x G1)) along the error line, with
        # ||G1|| = 1 under ple (eps = x) and ore (f = x) and sqrt(2) under sim
        # (eps = f = x).  Its Dyson expansion about x = 0 bounds the degree-k
        # coefficient of the sequence by s^k / k!, s = sum of (theta/2) ||G1||,
        # so the terms dropped after degree d sum to at most
        # e^{sx} (sx)^{d+1} / (d+1)!.  Rounding: compose rounds each pulse's
        # angle theta m/2 with an absolute error of a few units of roundoff times
        # theta, and each pulse's trigonometry and 2x2 product adds a few more;
        # the series' degree-0 coefficient rounds as compose does and its higher
        # coefficients carry the e^{sx} weight, so (n + Theta) eps_mach e^{sx}
        # bounds both sides, Theta the total angle.
        total = sum(p.angle for p in pulses)
        for kind, norm in ((PULSE_LENGTH, 1.0), (OFF_RESONANCE, 1.0), (SIMULTANEOUS, math.sqrt(2.0))):
            s = norm * total / 2.0
            for degree in (3, 8):
                ms = sequence_series(pulses, kind, degree)
                for x in (1e-3, 1e-2):
                    eps = 0.0 if kind == OFF_RESONANCE else x
                    f = 0.0 if kind == PULSE_LENGTH else x
                    exact = compose(pulses, ErrorModel(kind, epsilon=eps, f=f))
                    remainder = (s * x) ** (degree + 1) / math.factorial(degree + 1)
                    rounding = (len(pulses) + total) * np.finfo(float).eps
                    bound = math.exp(s * x) * (remainder + rounding)
                    assert maxdiff(ms.evaluate(eps, f), exact) <= bound, (kind, degree, x)
