"""Sequence constructors: pulse lists, solver phases, error orders."""

import math
import re

import pytest

from compulse import (
    ErrorModel,
    Pulse,
    compose,
    leading_error,
    residual,
)
from compulse import sequences, su2
from compulse.sequences import (
    CATALOG,
    PulseSequence,
    SolverFailure,
    bb1,
    build,
    corpse,
    or_pure_error,
    ple_pure_error,
    shift_phases,
    short_corpse,
    solve_third_order,
)
from compulse.su2 import OFF_RESONANCE, PULSE_LENGTH, SIMULTANEOUS

from conftest import ID2, maxdiff

PI = math.pi
PHI_VALUES = [0.3, 0.7, 1.1, 2.0, 2.6]


def _order(seq, kind=None, degree=8):
    kind = kind or seq.model_kind
    return leading_error(residual(seq.pulses, seq.target, kind, degree)).order


def _exactly(message):
    return f"^{re.escape(message)}$"


def _pauli_at(seq, kind, i, j, degree=None):
    degree = degree if degree is not None else i + j
    a = residual(seq.pulses, seq.target, kind, degree)
    return a.pauli_term(i, j)


class TestBB1:
    def test_structure_and_phase_pi(self):
        seq = bb1(PI)
        assert len(seq) == 4
        assert seq.metadata["phi_a"] == pytest.approx(math.acos(-0.25))
        assert math.degrees(seq.metadata["phi_a"]) == pytest.approx(104.4775, abs=1e-3)
        angles = [p.angle for p in seq.pulses]
        assert angles == pytest.approx([PI, PI, 2 * PI, PI])

    def test_phase_two_pi(self):
        assert math.degrees(bb1(2 * PI).metadata["phi_a"]) == pytest.approx(120.0)

    def test_range_check(self):
        with pytest.raises(ValueError):
            bb1(4 * PI + 0.1)
        with pytest.raises(ValueError):
            bb1(0.0)

    @pytest.mark.parametrize("theta", [PI / 2, PI, 3 * PI / 2])
    def test_third_order_accurate(self, theta):
        assert _order(bb1(theta)) == 3


class TestPulseLengthPureErrors:
    @pytest.mark.parametrize("phi", PHI_VALUES)
    def test_x1_first_order(self, phi):
        seq = ple_pure_error("x1", phi)
        _, cx, cy, cz = _pauli_at(seq, PULSE_LENGTH, 1, 0)
        assert cx == pytest.approx(-2j * PI * math.cos(phi), abs=1e-9)
        assert abs(cy) < 1e-9 and abs(cz) < 1e-9

    @pytest.mark.parametrize("phi", PHI_VALUES)
    def test_y1_and_inverses(self, phi):
        _, cx, cy, cz = _pauli_at(ple_pure_error("y1", phi), PULSE_LENGTH, 1, 0)
        assert cy == pytest.approx(-2j * PI * math.cos(phi), abs=1e-9)
        _, cx, cy, cz = _pauli_at(ple_pure_error("x1inv", phi), PULSE_LENGTH, 1, 0)
        assert cx == pytest.approx(2j * PI * math.cos(phi), abs=1e-9)
        _, cx, cy, cz = _pauli_at(ple_pure_error("y1inv", phi), PULSE_LENGTH, 1, 0)
        assert cy == pytest.approx(2j * PI * math.cos(phi), abs=1e-9)

    @pytest.mark.parametrize("phi", PHI_VALUES)
    def test_z1_rotated_error(self, phi):
        # composite-Z sandwich carries the x coefficient onto z
        _, cx, cy, cz = _pauli_at(ple_pure_error("z1", phi), PULSE_LENGTH, 1, 0)
        assert cz == pytest.approx(-2j * PI * math.cos(phi), abs=1e-10)
        assert abs(cx) < 1e-10 and abs(cy) < 1e-10

    @pytest.mark.parametrize("phi", PHI_VALUES)
    def test_z2_pair(self, phi):
        a = residual(
            ple_pure_error("z2", phi).pulses, Pulse(0.0, 0.0), PULSE_LENGTH, 2
        )
        assert a.degree_pauli_norm(1) < 1e-10
        _, _, _, cz = a.pauli_term(2, 0)
        assert cz == pytest.approx(-8j * PI**2 * math.cos(phi) ** 2, abs=1e-9)
        a = residual(
            ple_pure_error("z2prime", phi).pulses, Pulse(0.0, 0.0), PULSE_LENGTH, 2
        )
        _, _, _, cz = a.pauli_term(2, 0)
        assert cz == pytest.approx(8j * PI**2 * math.cos(phi) ** 2, abs=1e-9)

    @pytest.mark.parametrize("alpha,beta", [(0.3, 1.1), (0.9, 0.9), (1.4, 2.2), (2.0, 0.5), (2.8, 1.9)])
    def test_z2_general(self, alpha, beta):
        seq = ple_pure_error("z2general", alpha, beta)
        _, cx, cy, cz = _pauli_at(seq, PULSE_LENGTH, 2, 0)
        assert cz == pytest.approx(
            -8j * PI**2 * math.cos(alpha) * math.cos(beta), abs=1e-9
        )

    @pytest.mark.parametrize("beta", PHI_VALUES)
    def test_six_pulse_variant(self, beta):
        seq = ple_pure_error("six_pulse_z2", beta)
        assert len(seq) == 6
        _, cx, cy, cz = _pauli_at(seq, PULSE_LENGTH, 2, 0)
        assert cz == pytest.approx(-4j * PI**2 * math.cos(beta), abs=1e-9)

    @pytest.mark.parametrize("phi", PHI_VALUES)
    def test_x2prime(self, phi):
        _, cx, cy, cz = _pauli_at(ple_pure_error("x2prime", phi), PULSE_LENGTH, 2, 0)
        assert cx == pytest.approx(8j * PI**2 * math.cos(phi) ** 2, abs=1e-9)
        assert abs(cy) < 1e-9 and abs(cz) < 1e-9

    @pytest.mark.parametrize("phi", PHI_VALUES)
    def test_x3_third_order(self, phi):
        seq = ple_pure_error("x3", phi)
        a = residual(seq.pulses, Pulse(0.0, 0.0), PULSE_LENGTH, 3)
        assert a.degree_pauli_norm(1) < 1e-9
        assert a.degree_pauli_norm(2) < 1e-9
        _, cx, cy, cz = a.pauli_term(3, 0)
        assert cx == pytest.approx(-32j * PI**3 * math.cos(phi) ** 3, abs=1e-9)

    def test_exact_inverse_composition(self):
        phi = 0.7
        pulses = (*ple_pure_error("x1", phi).pulses, *ple_pure_error("x1inv", phi).pulses)
        for eps in (-0.3, 0.3):
            assert maxdiff(compose(pulses, ErrorModel.pulse_length(eps)), ID2) < 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match=_exactly("unknown pulse-length pure error kind 'w7'")):
            ple_pure_error("w7", 0.1)

    def test_argument_counts(self):
        refusals = {
            ("z2general", 0.1): "z2general takes exactly two phases (alpha, beta)",
            ("z2general", 0.1, 0.2, 0.3): "z2general takes exactly two phases (alpha, beta)",
            ("six_pulse_z2",): "six_pulse_z2 takes exactly one phase (beta)",
            ("six_pulse_z2", 0.1, 0.2): "six_pulse_z2 takes exactly one phase (beta)",
            ("x1", 0.1, 0.2): "x1 takes exactly one phase",
            ("x3",): "x3 takes exactly one phase",
        }
        for args, message in refusals.items():
            with pytest.raises(ValueError, match=_exactly(message)):
                ple_pure_error(*args)

    @pytest.mark.parametrize("alpha,beta", [(0.3, 1.1), (2.0, 0.7), (2.6, 2.6)])
    def test_z2general_chronological_list(self, alpha, beta):
        # the commutator X1(alpha) Y1(beta) X1^-1 Y1^-1, applied as Y1^-1, X1^-1, Y1, X1
        expected = (
            Pulse(2 * PI, 3 * PI / 2 + beta), Pulse(2 * PI, 3 * PI / 2 - beta),
            Pulse(2 * PI, PI + alpha), Pulse(2 * PI, PI - alpha),
            Pulse(2 * PI, PI / 2 - beta), Pulse(2 * PI, PI / 2 + beta),
            Pulse(2 * PI, -alpha), Pulse(2 * PI, alpha),
        )
        seq = ple_pure_error("z2general", alpha, beta)
        assert seq.pulses == expected
        assert seq.metadata == {"alpha": alpha, "beta": beta}


class TestSKCorrected:
    def test_sk1_metadata_and_order(self):
        seq = build("sk1", PI)
        assert len(seq) == 3
        assert math.degrees(seq.metadata["phi1"]) == pytest.approx(104.4775, abs=1e-3)
        assert _order(seq) == 2

    def test_sk2_eleven_pulses(self):
        seq = build("sk2", PI)
        assert len(seq) == 11
        assert math.degrees(seq.metadata["phi2"]) == pytest.approx(75.7591, abs=1e-3)
        assert seq.metadata["phi2"] == pytest.approx(math.acos(15**0.25 / 8))
        assert _order(seq) == 3

    def test_sk2rot_order(self):
        seq = build("sk2rot", PI)
        assert len(seq) == 17
        assert _order(seq) == 3

    @pytest.mark.parametrize("theta", [4 * PI, math.radians(720.0)], ids=["4pi", "radians"])
    def test_sk2_at_720_is_an_exact_identity(self, theta):
        # the radicand of phi2 vanishes at 4 pi; every pulse then lies on the x axis
        seq = build("sk2", theta)
        assert seq.metadata["phi2"] == PI / 2
        assert _order(seq) is None

    def test_sk3_order_four(self):
        seq = build("sk3", PI)
        assert len(seq) == 24
        assert _order(seq) == 4

    def test_sk3_other_angles_unsupported(self):
        with pytest.raises(ValueError):
            build("sk3", PI / 2)


class TestThirdOrderSolver:
    def test_root_property(self):
        phi3, delta = solve_third_order()
        seq = build("sk3", PI)
        a = residual(seq.pulses, seq.target, PULSE_LENGTH, 3)
        assert a.degree_pauli_norm(3) < 1e-9

    def test_closed_form_values(self):
        # the degree-3 defect of bb1(pi) is i pi^3 (-5 sx + sqrt(15) sy)/64,
        # so 32 pi^3 cos^3(phi3) = pi^3 sqrt(40)/64 and delta points along
        # atan2(sqrt(15), -5)
        phi3, delta = solve_third_order()
        assert phi3 == pytest.approx(math.acos((math.sqrt(40) / 2048) ** (1 / 3)), abs=1e-9)
        assert delta == pytest.approx(PI - math.atan(math.sqrt(15) / 5), abs=1e-9)

    def test_exact_closed_form(self):
        root = (math.acos((math.sqrt(40.0) / 2048.0) ** (1.0 / 3.0)), math.atan2(math.sqrt(15.0), -5.0))
        assert solve_third_order() == root == (1.4246525272567043, 2.4825346177633842)

    def test_degree_values(self):
        phi3, delta = solve_third_order()
        assert math.degrees(phi3) == pytest.approx(81.6266, abs=1e-3)
        assert math.degrees(delta) == pytest.approx(142.2388, abs=1e-3)

    def test_check_runs_on_the_built_pulse_list(self, monkeypatch):
        checked = []
        contour = su2.contour_sigma_norms  # the solver looks it up on su2 at each solve

        def recording(pulses, *args, **kwargs):
            checked.append(tuple(pulses))
            return contour(pulses, *args, **kwargs)

        monkeypatch.setattr(su2, "contour_sigma_norms", recording)
        solve_third_order.cache_clear()
        try:
            solve_third_order()
            solver_lists = list(checked)
        finally:
            solve_third_order.cache_clear()
        assert solver_lists == [build("sk3", PI).pulses]

    def test_failed_check_carries_root(self, monkeypatch):
        # no residual is below a zero tolerance: the check fails, and the
        # closed-form root still comes back as the best point
        monkeypatch.setattr(sequences, "_SOLVER_TOL", 0.0)
        with pytest.raises(SolverFailure) as err:
            solve_third_order.__wrapped__()
        assert err.value.best[:2] == solve_third_order()
        assert 0.0 <= err.value.best[2] < 1e-9


class TestCorpse:
    def test_angles_at_pi(self):
        seq = corpse(PI)
        a, b, c = (p.angle for p in seq.pulses)
        assert a == pytest.approx(2 * PI + PI / 3)
        assert b == pytest.approx(2 * PI - PI / 3)
        assert c == pytest.approx(PI / 3)
        assert [p.phase for p in seq.pulses] == pytest.approx([0.0, PI, 0.0])

    def test_short_preset(self):
        seq = short_corpse(PI)
        a, b, c = (p.angle for p in seq.pulses)
        assert a == pytest.approx(PI / 3)
        assert b == pytest.approx(2 * PI - PI / 3)
        assert c == pytest.approx(PI / 3)

    def test_custom_integers(self):
        seq = corpse(PI, (2, 1, 1))
        assert seq.metadata["na"] == 2
        assert seq.pulses[0].angle == pytest.approx(4 * PI + PI / 3)

    def test_nonpositive_segment_rejected(self):
        with pytest.raises(ValueError):
            corpse(PI, (0, 0, 0))

    @pytest.mark.parametrize("theta", [PI / 2, PI])
    @pytest.mark.parametrize("preset", ["corpse", "short"])
    def test_second_order_accurate(self, theta, preset):
        seq = corpse(theta) if preset == "corpse" else short_corpse(theta)
        assert _order(seq) == 2

    @pytest.mark.parametrize("theta", [0.8, 1.1, PI / 2])
    def test_inverse_pair_third_order(self, theta):
        fwd = corpse(theta)
        bwd = shift_phases(corpse(theta), PI)
        a = residual(
            (*fwd.pulses, *bwd.pulses), Pulse(0.0, 0.0), OFF_RESONANCE, 3
        )
        assert a.degree_pauli_norm(1) < 1e-10
        assert a.degree_pauli_norm(2) < 1e-10
        assert a.degree_pauli_norm(3) > 1e-3


class TestOffResonancePureErrors:
    @pytest.mark.parametrize("phi", PHI_VALUES)
    def test_b1(self, phi):
        _, cx, cy, cz = _pauli_at(or_pure_error("b1", phi), OFF_RESONANCE, 0, 1)
        assert cz == pytest.approx(-2j * math.sin(phi), abs=1e-9)
        assert abs(cx) < 1e-9 and abs(cy) < 1e-9

    def test_b1_rejects_negative_phase(self):
        message = ("b1 needs a nonnegative phase parameter (it fixes the pulse angles); "
                   "use phi + pi for a negative z coefficient")
        with pytest.raises(ValueError, match=_exactly(message)):
            or_pure_error("b1", -0.2)

    @pytest.mark.parametrize("phi", PHI_VALUES)
    def test_y1prime(self, phi):
        _, cx, cy, cz = _pauli_at(or_pure_error("y1prime", phi), OFF_RESONANCE, 0, 1)
        assert cy == pytest.approx(4j * math.cos(phi), abs=1e-9)

    @pytest.mark.parametrize("phi", PHI_VALUES)
    def test_x1_y1_x1prime(self, phi):
        _, cx, _, _ = _pauli_at(or_pure_error("x1", phi), OFF_RESONANCE, 0, 1)
        assert cx == pytest.approx(-4j * math.cos(phi), abs=1e-9)
        _, _, cy, _ = _pauli_at(or_pure_error("y1", phi), OFF_RESONANCE, 0, 1)
        assert cy == pytest.approx(-4j * math.cos(phi), abs=1e-9)
        _, cx, _, _ = _pauli_at(or_pure_error("x1prime", phi), OFF_RESONANCE, 0, 1)
        assert cx == pytest.approx(4j * math.cos(phi), abs=1e-9)

    @pytest.mark.parametrize("phi", PHI_VALUES)
    def test_z2_pair(self, phi):
        a = residual(or_pure_error("z2", phi).pulses, Pulse(0.0, 0.0), OFF_RESONANCE, 2)
        assert a.degree_pauli_norm(1) < 1e-9
        _, _, _, cz = a.pauli_term(0, 2)
        assert cz == pytest.approx(-32j * math.cos(phi) ** 2, abs=1e-9)
        a = residual(or_pure_error("z2prime", phi).pulses, Pulse(0.0, 0.0), OFF_RESONANCE, 2)
        _, _, _, cz = a.pauli_term(0, 2)
        assert cz == pytest.approx(32j * math.cos(phi) ** 2, abs=1e-9)

    @pytest.mark.parametrize("phi", PHI_VALUES)
    def test_x2(self, phi):
        a = residual(or_pure_error("x2", phi).pulses, Pulse(0.0, 0.0), OFF_RESONANCE, 2)
        assert a.degree_pauli_norm(1) < 1e-9
        _, cx, cy, cz = a.pauli_term(0, 2)
        assert cx == pytest.approx(-16j * math.cos(phi), abs=1e-9)

    @pytest.mark.parametrize("phi", PHI_VALUES)
    def test_x1prime_is_good_inverse(self, phi):
        # X1'(phi) X1(phi) has no first-order off-resonance error
        pulses = (
            *or_pure_error("x1", phi).pulses,
            *or_pure_error("x1prime", phi).pulses,
        )
        a = residual(pulses, Pulse(0.0, 0.0), OFF_RESONANCE, 2)
        assert a.degree_pauli_norm(1) < 1e-10

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match=_exactly("unknown off-resonance pure error kind 'q1'")):
            or_pure_error("q1", 0.1)

    @pytest.mark.parametrize("phi", PHI_VALUES)
    @pytest.mark.parametrize("primed,plain", [("x1prime", "x1"), ("y1prime", "y1"), ("z2prime", "z2")])
    def test_primed_terms_are_reversed(self, primed, plain, phi):
        assert or_pure_error(primed, phi).pulses == or_pure_error(plain, phi).pulses[::-1]


class TestOffResonanceCorrected:
    def test_first_pi_phase(self):
        seq = build("or-first", PI)
        assert math.degrees(seq.metadata["phi1"]) == pytest.approx(104.4775, abs=1e-3)
        assert _order(seq) == 2

    @pytest.mark.parametrize("theta_deg", [60.0, 120.0, 180.0])
    def test_first_general_orders(self, theta_deg):
        seq = build("or-first-general", math.radians(theta_deg))
        assert _order(seq) == 2
        assert all(p.angle >= 0.0 for p in seq.pulses)

    def test_first_general_solved_phases(self):
        theta = math.radians(60.0)
        seq = build("or-first-general", theta)
        assert seq.metadata["phi1y"] == pytest.approx(
            math.acos(-math.sin(theta / 2) ** 2 / 4)
        )
        assert seq.metadata["phi1z"] == pytest.approx(-math.asin(math.sin(theta) / 4))

    def test_first_general_range(self):
        with pytest.raises(ValueError):
            build("or-first-general", 0.0)

    def test_second_corpse_rotated(self):
        seq = build("or-second-corpse", PI)
        assert math.degrees(seq.metadata["psi2"]) == pytest.approx(22.0764, abs=1e-3)
        assert math.degrees(seq.metadata["phi2"]) == pytest.approx(75.1941, abs=1e-3)
        assert _order(seq) == 3

    def test_second_xz(self):
        seq = build("or-second-xz", PI)
        assert math.degrees(seq.metadata["phi2x"]) == pytest.approx(92.8136, abs=1e-3)
        assert math.degrees(seq.metadata["phi2z"]) == pytest.approx(75.7591, abs=1e-3)
        assert _order(seq) == 3

    def test_time_symmetric(self):
        seq = build("or-timesym", PI)
        assert math.degrees(seq.metadata["phi1_prime"]) == pytest.approx(97.1808, abs=1e-3)
        assert _order(seq) == 2
        # palindromic pulse list
        fwd = [(p.angle, p.phase) for p in seq.pulses]
        assert fwd == pytest.approx(list(reversed(fwd)))

    def test_simultaneous_pulse_list(self):
        seq = build("simultaneous", PI)
        phi1 = math.acos(-0.25)
        expected = [
            (PI, 0.0),
            (PI, phi1),
            (2 * PI, 3 * phi1 % (2 * PI)),
            (PI, phi1),
            (PI, PI - phi1),
            (PI, (-phi1) % (2 * PI)),
            (PI, PI + phi1),
            (PI, phi1),
        ]
        got = [(p.angle, p.phase) for p in seq.pulses]
        assert got == pytest.approx(expected)

    def test_simultaneous_is_bb1_then_y1prime(self):
        y1prime = or_pure_error("y1prime", math.acos(-0.25))
        assert build("simultaneous").pulses == bb1(PI).pulses + y1prime.pulses


class TestSimultaneousCoefficients:
    def test_fidelity_series_terms(self):
        from compulse import fidelity_series

        seq = build("simultaneous", PI)
        fid = fidelity_series(residual(seq.pulses, seq.target, "sim", 8))
        assert -fid.coeff(0, 4).real == pytest.approx(15.0 / 8.0, rel=1e-6)
        assert -fid.coeff(6, 0).real == pytest.approx(5 * PI**6 / 1024, rel=1e-6)
        assert -fid.coeff(2, 2).real == pytest.approx(169 * PI**2 / 32, rel=1e-6)

    def test_reduces_to_bb1_without_detuning(self):
        seq = build("simultaneous", PI)
        ref = bb1(PI)
        for eps in (-0.2, 0.37):
            lhs = compose(seq.pulses, ErrorModel.pulse_length(eps))
            rhs = compose(ref.pulses, ErrorModel.pulse_length(eps))
            assert maxdiff(lhs, rhs) < 1e-12


class TestTimeSymmetricFidelity:
    def test_odd_coefficients_vanish(self):
        from compulse import fidelity_series

        seq = build("or-timesym", PI)
        fid = fidelity_series(residual(seq.pulses, seq.target, OFF_RESONANCE, 8))
        for odd in (1, 3, 5, 7):
            assert abs(fid.coeff(0, odd)) < 1e-10

    def test_or_first_has_fifth_order_term(self):
        from compulse import fidelity_series

        seq = build("or-first", PI)
        fid = fidelity_series(residual(seq.pulses, seq.target, OFF_RESONANCE, 8))
        assert abs(fid.coeff(0, 5)) > 1.0  # measured value is about 6.08


class TestShiftPhases:
    def test_zero_shift_identity(self):
        seq = bb1(PI)
        shifted = shift_phases(seq, 0.0)
        assert [(p.angle, p.phase) for p in shifted.pulses] == [
            (p.angle, p.phase) for p in seq.pulses
        ]

    def test_bb1_shifted_target(self):
        dphi = 0.9
        seq = shift_phases(bb1(PI), dphi)
        a = residual(seq.pulses, Pulse(PI, dphi), PULSE_LENGTH, 3)
        assert a.degree_pauli_norm(1) < 1e-10
        assert a.degree_pauli_norm(2) < 1e-10

    def test_x3_error_vector_rotates(self):
        phi, dphi = 0.7, 0.5
        base = ple_pure_error("x3", phi)
        shifted = shift_phases(base, dphi)
        a0 = residual(base.pulses, Pulse(0.0, 0.0), PULSE_LENGTH, 3)
        a1 = residual(shifted.pulses, Pulse(0.0, 0.0), PULSE_LENGTH, 3)
        _, cx0, cy0, _ = a0.pauli_term(3, 0)
        _, cx1, cy1, _ = a1.pauli_term(3, 0)
        expected_x = cx0 * math.cos(dphi) - cy0 * math.sin(dphi)
        expected_y = cx0 * math.sin(dphi) + cy0 * math.cos(dphi)
        assert cx1 == pytest.approx(expected_x, abs=1e-9)
        assert cy1 == pytest.approx(expected_y, abs=1e-9)


class TestErrorRotationProperty:
    @pytest.mark.parametrize("phi", PHI_VALUES)
    def test_sandwich_moves_x_error_to_z(self, phi):
        x1 = ple_pure_error("x1", phi)
        z1 = ple_pure_error("z1", phi)
        ax = residual(x1.pulses, Pulse(0.0, 0.0), PULSE_LENGTH, 1)
        az = residual(z1.pulses, Pulse(0.0, 0.0), PULSE_LENGTH, 1)
        _, cx, _, _ = ax.pauli_term(1, 0)
        _, _, _, cz = az.pauli_term(1, 0)
        assert cz == pytest.approx(cx, abs=1e-10)


#: design error model of every catalog entry, kept apart from the builders
DESIGN_MODELS = {
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


class TestCatalog:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_builds(self, name):
        seq = build(name, PI)
        assert len(seq) >= 1
        assert seq.model_kind == DESIGN_MODELS[name]
        assert seq.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build("bb2", PI)

    @pytest.mark.parametrize("name", ["sk3", "or-first", "or-second-corpse", "or-second-xz", "or-timesym", "simultaneous"])
    def test_fixed_target_guard(self, name):
        with pytest.raises(ValueError):
            build(name, PI / 2)

    def test_total_angle(self):
        assert bb1(PI).total_angle == pytest.approx(5 * PI)

    def test_total_angle_counts_negative_angles(self):
        seq = PulseSequence("mixed", 0.5, (Pulse(-1.5, 0.3), Pulse(2.0, 0.0)))
        assert seq.total_angle == 3.5
