"""Exact propagator algebra: rotations, error models, fidelity, Pauli basis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compulse import (
    ErrorModel,
    Pulse,
    adjoint,
    compose,
    fidelity,
    pauli_decompose,
    propagator,
    rotation,
)
from compulse import series, su2
from compulse.sequences import bb1, build
from compulse.su2 import CONTOUR_EPS, _axis_angle, _chain, pulse_matrix, residual_grid
from compulse.verify import _PulseColumn, infidelity_grid

from conftest import ID2, SX, SY, SZ, maxdiff, pauli_vec, taylor_expm

ANGLES = st.floats(min_value=-4 * math.pi, max_value=4 * math.pi, allow_nan=False)
PHASES = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False)
SMALL = st.floats(min_value=-0.3, max_value=0.3, allow_nan=False)


class TestRotation:
    def test_zero_angle_is_identity(self):
        for phi in (0.0, 1.0, -2.5, math.pi):
            assert maxdiff(rotation(0.0, phi), ID2) == 0.0

    def test_pi_about_x(self):
        assert maxdiff(rotation(math.pi, 0.0), -1j * SX) < 1e-15

    @pytest.mark.parametrize("phi", [0.0, 0.7, 2.0, -1.3])
    def test_two_pi_is_minus_identity(self, phi):
        assert maxdiff(rotation(2 * math.pi, phi), -ID2) < 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            rotation(float("nan"), 0.0)
        with pytest.raises(ValueError):
            rotation(1.0, float("inf"))

    def test_negative_angle_identity(self):
        # U(-theta, phi) = U(theta, phi + pi)
        assert maxdiff(rotation(-1.1, 0.4), rotation(1.1, 0.4 + math.pi)) < 1e-15


class TestPulse:
    def test_negative_angle_normalized(self):
        p = Pulse(-1.2, 0.3)
        assert p.angle == pytest.approx(1.2)
        assert p.phase == pytest.approx(0.3 + math.pi)
        assert p.flipped

    def test_phase_reduced(self):
        assert Pulse(1.0, 7.0).phase == pytest.approx(7.0 - 2 * math.pi)
        assert Pulse(1.0, -0.5).phase == pytest.approx(2 * math.pi - 0.5)
        # float % rounds these up to the modulus itself, outside [0, 2pi)
        for phase in (-1e-17, -1e-300, -math.ulp(2 * math.pi) / 4):
            assert phase % (2 * math.pi) == 2 * math.pi
            assert Pulse(1.0, phase).phase == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Pulse(float("inf"), 0.0)


class TestErrorModel:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            ErrorModel("bogus")
        with pytest.raises(ValueError):
            ErrorModel("ple", f=0.1)
        with pytest.raises(ValueError):
            ErrorModel("ore", epsilon=0.1)

    def test_constructors(self):
        assert ErrorModel.pulse_length(0.1).epsilon == 0.1
        assert ErrorModel.off_resonance(0.2).f == 0.2
        m = ErrorModel.simultaneous(0.1, 0.2)
        assert (m.epsilon, m.f) == (0.1, 0.2)


class TestPropagator:
    def test_zero_error_reduces_to_rotation(self):
        p = Pulse(math.pi, 0.0)
        for m in (
            ErrorModel.pulse_length(0.0),
            ErrorModel.off_resonance(0.0),
            ErrorModel.simultaneous(0.0, 0.0),
        ):
            assert maxdiff(propagator(p, m), rotation(math.pi, 0.0)) < 1e-15

    def test_two_pi_pulse_linear_error_term(self):
        # V(2pi, 0) = -1 + i pi eps sigma_x + O(eps^2)
        eps = 1e-4
        v = propagator(Pulse(2 * math.pi, 0.0), ErrorModel.pulse_length(eps))
        approx = -ID2 + 1j * math.pi * eps * SX
        assert maxdiff(v, approx) < 10 * eps**2

    def test_off_resonance_closed_form(self):
        f = 0.1
        v = propagator(Pulse(math.pi, 0.0), ErrorModel.off_resonance(f))
        m = math.sqrt(1 + f * f)
        a = math.pi * m / 2
        expected = math.cos(a) * ID2 - 1j * math.sin(a) * (SX + f * SZ) / m
        assert maxdiff(v, expected) < 1e-14

    @pytest.mark.parametrize(
        "theta,phi,eps,f",
        [
            (math.pi, 0.0, 0.0, 0.1),
            (2.2, 0.9, 0.0, 0.13),
            (0.3, -1.0, 0.0, -0.2),
            (math.pi / 2, 2.0, 0.15, 0.07),
            (5.0, 0.3, -0.2, 0.25),
        ],
    )
    def test_against_taylor_expm_oracle(self, theta, phi, eps, f):
        w = 1.0 + eps
        h = -0.5j * theta * (w * math.cos(phi) * SX + w * math.sin(phi) * SY + f * SZ)
        oracle = taylor_expm(h)
        model = (
            ErrorModel.off_resonance(f) if eps == 0.0 else ErrorModel.simultaneous(eps, f)
        )
        assert maxdiff(propagator(Pulse(theta, phi), model), oracle) < 1e-13

    def test_pulse_length_matches_expm_oracle(self):
        theta, phi, eps = 1.7, 0.4, 0.23
        h = -0.5j * theta * (1 + eps) * (math.cos(phi) * SX + math.sin(phi) * SY)
        assert maxdiff(
            propagator(Pulse(theta, phi), ErrorModel.pulse_length(eps)), taylor_expm(h)
        ) < 1e-13

    @pytest.mark.parametrize("kind", ["ple", "ore", "sim"])
    def test_grid_matches_scalar_propagator(self, kind):
        p = Pulse(2.3, 0.8)
        eps = np.array([-0.1, 0.0, 3e-3])[:, None]
        f = np.array([0.0, 2e-2])[None, :]
        # a model ignores the fraction it does not carry
        grid = np.broadcast_to(pulse_matrix(p, kind, eps, f), (3, 2, 2, 2))
        for i, e in enumerate(eps[:, 0]):
            for j, x in enumerate(f[0]):
                model = ErrorModel(
                    kind,
                    epsilon=0.0 if kind == "ore" else float(e),
                    f=0.0 if kind == "ple" else float(x),
                )
                assert np.array_equal(grid[i, j], propagator(p, model))

    def test_flipped_pulse_rejected_off_resonance(self):
        p = Pulse(-1.0, 0.0)
        propagator(p, ErrorModel.pulse_length(0.1))  # fine
        match = "off-resonance propagators are defined for nonnegative angles only"
        with pytest.raises(ValueError, match=match):
            propagator(p, ErrorModel.off_resonance(0.1))
        with pytest.raises(ValueError, match=match):
            propagator(p, ErrorModel.simultaneous(0.1, 0.1))

    @given(theta=ANGLES, phi=PHASES, eps=SMALL, f=SMALL)
    @settings(max_examples=60, deadline=None)
    def test_unitarity_and_determinant(self, theta, phi, eps, f):
        p = Pulse(abs(theta), phi)
        for m in (
            ErrorModel.pulse_length(eps),
            ErrorModel.off_resonance(f),
            ErrorModel.simultaneous(eps, f),
        ):
            v = propagator(p, m)
            assert maxdiff(v @ v.conj().T, ID2) < 1e-12
            assert abs(abs(np.linalg.det(v)) - 1.0) < 1e-12


class TestCompose:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compose([], ErrorModel.pulse_length(0.0))

    def test_single_pulse(self):
        p = Pulse(1.3, 0.6)
        m = ErrorModel.pulse_length(0.11)
        assert maxdiff(compose([p], m), propagator(p, m)) == 0.0

    def test_bb1_zero_error_collapses(self):
        seq = bb1(math.pi / 2)
        got = compose(seq, ErrorModel.pulse_length(0.0))
        assert fidelity(got, rotation(math.pi / 2, 0.0)) > 1.0 - 1e-12

    @pytest.mark.parametrize("theta", [0.1, math.pi / 2, math.pi, 2 * math.pi])
    @pytest.mark.parametrize("eps", [-0.2, 0.2])
    def test_pulse_length_exact_inverse(self, theta, eps):
        # V(theta, phi + pi) V(theta, phi) = 1 for any amplitude error
        for phi in (0.0, 1.1):
            got = compose(
                [Pulse(theta, phi), Pulse(theta, phi + math.pi)],
                ErrorModel.pulse_length(eps),
            )
            assert maxdiff(got, ID2) < 1e-12

    @pytest.mark.parametrize("theta", [0.4, 1.0, 2.0, 3.0])
    def test_composite_z_rotation(self, theta):
        got = (
            rotation(math.pi / 2, 3 * math.pi / 2)
            @ rotation(theta, 0.0)
            @ rotation(math.pi / 2, math.pi / 2)
        )
        expected = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
        assert maxdiff(got, expected) < 1e-12

    @pytest.mark.parametrize("theta", [0.5, 1.1, math.pi / 2, math.pi])
    def test_off_resonance_pair_is_not_inverse(self, theta):
        # ||V(theta,pi)V(theta,0) - 1|| scales linearly in f
        def gap(f):
            got = compose(
                [Pulse(theta, 0.0), Pulse(theta, math.pi)], ErrorModel.off_resonance(f)
            )
            return maxdiff(got, ID2)

        g1, g2 = gap(1e-3), gap(5e-4)
        assert g1 > 1e-5  # a genuine first-order defect
        assert g1 / g2 == pytest.approx(2.0, rel=0.02)

    def test_one_propagator_call_per_pulse(self, monkeypatch):
        """``compose`` builds its product from one ``propagator`` call per pulse.

        The benchmark's per-layer metrics ``su2.propagator.us`` and
        ``su2.compose.us_per_pulse`` time ``compose`` of whole sequences and
        divide by the number of ``propagator`` spans inside it; a ``compose``
        that bypassed ``propagator`` would leave them with nothing to divide by.
        """
        calls = []

        def counting(pulse, model):
            calls.append(pulse)
            return propagator(pulse, model)

        monkeypatch.setattr(su2, "propagator", counting)
        for name, model in (
            ("bb1", ErrorModel.pulse_length(0.05)),
            ("sk3", ErrorModel.pulse_length(0.05)),
            ("or-second-xz", ErrorModel.off_resonance(0.05)),
            ("simultaneous", ErrorModel.simultaneous(0.05, 0.02)),
        ):
            seq = build(name, math.pi)
            calls.clear()
            assert np.array_equal(compose(seq, model), _chain(propagator(p, model) for p in seq))
            assert calls == list(seq.pulses)


class TestFidelity:
    def test_self_and_global_phase(self):
        u = rotation(1.2, 0.3)
        assert fidelity(u, u) == pytest.approx(1.0, abs=1e-15)
        assert fidelity(-u, u) == pytest.approx(1.0, abs=1e-15)

    def test_bb1_infidelity_near_paper_coefficient(self):
        seq = bb1(math.pi)
        got = compose(seq, ErrorModel.pulse_length(0.1))
        infid = 1.0 - fidelity(got, rotation(math.pi, 0.0))
        expected = 5 * math.pi**6 / 1024 * 0.1**6
        assert infid == pytest.approx(expected, rel=0.1)

    @given(t1=ANGLES, p1=PHASES, t2=ANGLES, p2=PHASES, alpha=PHASES)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_phase_invariance(self, t1, p1, t2, p2, alpha):
        v = rotation(t1, p1)
        u = rotation(t2, p2)
        assert fidelity(v, u) == pytest.approx(fidelity(u, v), abs=1e-12)
        assert fidelity(np.exp(1j * alpha) * v, u) == pytest.approx(
            fidelity(v, u), abs=1e-12
        )


class TestAdjoint:
    def test_identity(self):
        assert maxdiff(adjoint(ID2), ID2) == 0.0

    def test_rotation_adjoint_is_phase_shifted(self):
        assert maxdiff(adjoint(rotation(1.3, 0.4)), rotation(1.3, 0.4 + math.pi)) < 1e-15

    def test_involution(self):
        m = rotation(0.9, 2.2) @ rotation(0.1, 1.0)
        assert maxdiff(adjoint(adjoint(m)), m) == 0.0


class TestPauliDecompose:
    def test_identity(self):
        d = pauli_decompose(ID2)
        assert (d.c0, d.cx, d.cy, d.cz) == (1, 0, 0, 0)

    def test_sigma_x(self):
        d = pauli_decompose(SX)
        assert (d.c0, d.cx, d.cy, d.cz) == (0, 1, 0, 0)

    def test_rotation_closed_form(self):
        theta = 1.1
        d = pauli_decompose(rotation(theta, 0.0))
        assert d.c0 == pytest.approx(math.cos(theta / 2))
        assert d.cx == pytest.approx(-1j * math.sin(theta / 2))
        assert abs(d.cy) < 1e-15 and abs(d.cz) < 1e-15

    @given(
        entries=st.lists(
            st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
            min_size=4,
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_reconstruction(self, entries):
        m = np.array(entries, dtype=complex).reshape(2, 2)
        d = pauli_decompose(m)
        assert maxdiff(d.reconstruct(), m) < 1e-13

    def test_matches_trace_projection(self):
        m = rotation(2.2, 0.5) @ rotation(0.3, 1.9)
        d = pauli_decompose(m)
        c0, cx, cy, cz = pauli_vec(m)
        assert abs(d.c0 - c0) < 1e-14
        assert abs(d.cx - cx) < 1e-14
        assert abs(d.cy - cy) < 1e-14
        assert abs(d.cz - cz) < 1e-14


class TestAxisAngleBatch:
    """A column of phases against a grid gives each scalar-phase call bit for bit."""

    PHASE_COLUMN = np.array([0.0, 0.3, 1.1, math.pi / 2, 2.9, 4.0, 5.5, 2 * math.pi - 1e-9])[:, None]
    ANGLE_COLUMN = np.array([0.5, math.pi, 2.2, 5.0, 0.01, 4 * math.pi, 1.3, 3.0])[:, None]

    def _assert_rows_equal(self, batch, scalar_call):
        for i, phi in enumerate(self.PHASE_COLUMN[:, 0]):
            assert batch[i].tobytes() == scalar_call(i, float(phi)).tobytes()

    def test_real_path(self):
        eps = np.geomspace(1e-4, 1e-1, 7)
        batch = _axis_angle(self.ANGLE_COLUMN * (1.0 + eps), self.PHASE_COLUMN, 1.0 + eps, 0.02)
        assert batch.shape == (8, 7, 2, 2)
        self._assert_rows_equal(
            batch, lambda i, phi: _axis_angle(self.ANGLE_COLUMN[i, 0] * (1.0 + eps), phi, 1.0 + eps, 0.02)
        )

    def test_complex_contour_path(self):
        batch = _axis_angle(self.ANGLE_COLUMN * (1.0 + CONTOUR_EPS), self.PHASE_COLUMN, 1.0, 0.0)
        assert batch.dtype == complex and batch.shape == (8, 32, 2, 2)
        self._assert_rows_equal(
            batch, lambda i, phi: _axis_angle(self.ANGLE_COLUMN[i, 0] * (1.0 + CONTOUR_EPS), phi, 1.0, 0.0)
        )

    def test_phase_column_broadcasts_against_scalar_angle(self):
        batch = _axis_angle(1.7, self.PHASE_COLUMN, 1.0, 0.0)
        assert batch.shape == (8, 1, 2, 2)
        self._assert_rows_equal(batch, lambda i, phi: _axis_angle(1.7, phi, 1.0, 0.0)[None])


class TestPulseLoop:
    """The grid pulse loop shares each distinct angle's trig, bit for bit."""

    GRIDS = {
        "1-D": np.geomspace(1e-4, 1e-1, 9),
        "(E,1)x(1,F)": (np.linspace(-0.1, 0.1, 5)[:, None], np.geomspace(1e-3, 1e-1, 4)[None, :]),
        "contour": CONTOUR_EPS,
    }

    @staticmethod
    def _fractions(kind, grid):
        if isinstance(grid, tuple):
            return grid
        # the grid on the fraction(s) the model carries
        return {"ple": (grid, 0.0), "ore": (0.0, grid), "sim": (grid, grid / 2.0)}[kind]

    @pytest.mark.parametrize("grid", list(GRIDS), ids=list(GRIDS))
    @pytest.mark.parametrize("kind", ["ple", "ore", "sim"])
    @pytest.mark.parametrize("name", ["sk3", "sk2rot", "or-second-xz", "simultaneous"])
    def test_residual_grid_equals_per_pulse_chain(self, name, kind, grid):
        seq = build(name, math.pi)
        # fewer distinct angles than pulses, so the loop shares work
        assert len({p.angle for p in seq}) < len(seq.pulses)
        eps, f = self._fractions(kind, self.GRIDS[grid])
        u = su2.rotation(seq.target.angle, seq.target.phase)
        got = residual_grid(seq.pulses, kind, eps, f, u)
        want = _chain(pulse_matrix(p, kind, eps, f) for p in seq) @ u.conj().T
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("eps", [np.geomspace(1e-4, 1e-1, 7), CONTOUR_EPS], ids=["real", "contour"])
    def test_pulse_columns_with_repeated_angles(self, eps):
        thetas = np.radians([20.0, 75.0, 130.0, 180.0])
        seqs = [build("sk2rot", theta) for theta in thetas]
        table = np.array([[(p.angle, p.phase) for p in seq] for seq in seqs])
        columns = [_PulseColumn(table[:, j, 0, None], table[:, j, 1, None]) for j in range(table.shape[1])]
        assert len({c.angle.tobytes() for c in columns}) < len(columns)
        u = np.stack([su2.rotation(seq.target.angle, seq.target.phase) for seq in seqs])[:, None]
        got = residual_grid(columns, "ple", eps, 0.0, u)
        want = _chain(pulse_matrix(c, "ple", eps, 0.0) for c in columns) @ np.swapaxes(u.conj(), -1, -2)
        assert np.array_equal(got, want)

    def test_signed_zero_angles_keep_their_own_matrices(self):
        pulses = [Pulse(0.0, 0.4), Pulse(-0.0, 0.4)]
        for kind in ("ple", "ore", "sim"):
            got = list(su2._pulse_matrices(pulses, kind, 0.01, 0.02))
            for p, m in zip(pulses, got):
                assert m.tobytes() == pulse_matrix(p, kind, 0.01, 0.02).tobytes()

    @pytest.mark.parametrize("kind", ["ore", "sim"])
    def test_flipped_pulse_after_same_angle_rejected(self, kind):
        pulses = [Pulse(1.0, 0.3), Pulse(-1.0, 0.0)]
        assert pulses[0].angle == pulses[1].angle and pulses[1].flipped
        with pytest.raises(ValueError, match="nonnegative angles only"):
            residual_grid(pulses, kind, 0.01, 0.02, su2.IDENTITY)
        residual_grid(pulses, "ple", 0.01, 0.02, su2.IDENTITY)  # fine

    @pytest.mark.parametrize("kind", ["xyz", "PLE", "sim ", ""])
    def test_unknown_kind_rejected(self, kind):
        # every other kind used to be taken for off-resonance
        corpse = build("corpse", math.pi)
        match = f"unknown error model kind {kind!r}"
        with pytest.raises(ValueError, match=match):
            infidelity_grid(corpse, kind, 0.0, 0.01, corpse.target)
        with pytest.raises(ValueError, match=match):
            pulse_matrix(corpse.pulses[0], kind, 0.1, 0.0)
        with pytest.raises(ValueError, match=match):
            residual_grid([], kind, 0.0, 0.01, su2.IDENTITY)
        with pytest.raises(ValueError, match=match):
            series.propagator_series(corpse.pulses[0], kind, 2)
        with pytest.raises(ValueError, match=match):
            series.residual(corpse.pulses, corpse.target, kind, 2)
        with pytest.raises(ValueError, match=match):
            ErrorModel(kind)
