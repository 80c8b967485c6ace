"""Exact propagator algebra: rotations, error models, fidelity, Pauli basis."""

import dataclasses
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
from compulse.sequences import CATALOG, bb1, build
from compulse.su2 import (
    CONTOUR_EPS,
    _axis_angle,
    contour_sigma_norms,
    pulse_matrix,
    residual_columns,
    taylor_coefficients,
)
from compulse.verify import _PulseColumn, infidelity_grid

from conftest import ID2, SX, SY, SZ, maxdiff, pauli_vec, taylor_expm

ANGLES = st.floats(min_value=-4 * math.pi, max_value=4 * math.pi, allow_nan=False)
PHASES = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False)
SMALL = st.floats(min_value=-0.3, max_value=0.3, allow_nan=False)


def _column_steps(matrices, u):
    """Entries (w00, w10, w01, w11) of W = V U^dag, stacked along a last axis,
    by explicit steps of both columns over lone matrices, the first one the
    rightmost factor: the bit reference for the pulse loop's planning and
    batching, whose first column :func:`residual_columns` composes, and for
    the second column it derives.  At a scalar point and a single U it steps
    on numpy scalars throughout."""
    # [()] makes the entries of a lone 2x2 matrix numpy scalars, as a stack's entries are
    u_dag = u.conj().swapaxes(-1, -2)
    w00, w10, w01, w11 = (u_dag[..., i, j][()] for i, j in ((0, 0), (1, 0), (0, 1), (1, 1)))
    for m in matrices:
        m00, m01, m10, m11 = (m[..., i, j][()] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
        w00, w10 = m00 * w00 + m01 * w10, m10 * w00 + m11 * w10
        w01, w11 = m00 * w01 + m01 * w11, m10 * w01 + m11 * w11
    return np.stack((w00, w10, w01, w11), axis=-1)


def _columns_of(pulses, kind, eps, f, u=su2.IDENTITY):
    """The entries (w00, w10) of :func:`residual_columns` stacked along a
    last axis: the first two of :func:`_column_steps`."""
    return np.stack(residual_columns(pulses, kind, eps, f, u), axis=-1)


def _matmul_chain(matrices, u):
    """W = V U^dag multiplied with ``@``, the first matrix the rightmost
    factor: the reference that bounds the column chain."""
    out = None
    for m in matrices:
        out = m if out is None else m @ out
    return out @ u.conj().swapaxes(-1, -2)


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
        # the angle keeps its sign; only the phase is reduced to [0, 2pi)
        p = Pulse(-1.2, 0.3 + 2 * math.pi)
        assert p.angle == -1.2
        assert p.phase == pytest.approx(0.3)
        assert [f.name for f in dataclasses.fields(Pulse)] == ["angle", "phase"]

    @pytest.mark.parametrize("theta", [-math.pi / 2, -1.1, -2.2])
    def test_negative_angle_matrix_is_its_rotation(self, theta):
        for phi in (0.0, 0.3, 4.5):
            assert pulse_matrix(Pulse(theta, phi), "ple", 0.0, 0.0).tobytes() == rotation(theta, phi).tobytes()
            for eps in (1e-3, 1e-2):
                shifted = pulse_matrix(Pulse(-theta, phi + math.pi), "ple", eps, 0.0)
                assert maxdiff(pulse_matrix(Pulse(theta, phi), "ple", eps, 0.0), shifted) < 1e-15

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

    def test_negative_angle_rejected_off_resonance(self):
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

    def test_array_fractions_give_one_matrix_per_point(self):
        seq = build("sk2rot", 2.0)
        eps = np.array([[0.01, -0.02, 0.05]])
        got = compose(seq, ErrorModel.pulse_length(eps))
        assert got.shape == (1, 3, 2, 2)
        for j, e in enumerate(eps[0]):
            assert maxdiff(got[0, j], compose(seq, ErrorModel.pulse_length(float(e)))) < 1e-15

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
            columns = _columns_of(seq, model.kind, model.epsilon, model.f)
            calls.clear()
            got = compose(seq, model)
            assert got.shape == (2, 2)
            assert got[:, 0].tobytes() == columns.tobytes()  # w00, w10
            assert (got[:, 1] == [-columns[1].conjugate(), columns[0].conjugate()]).all()
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

    def test_stack_is_adjoint_matrix_by_matrix(self):
        stack = np.stack([rotation(0.3 * k, 0.7 * k) for k in range(3)])
        got = adjoint(stack)
        assert got.shape == (3, 2, 2)
        for k in range(3):
            assert maxdiff(got[k], stack[k].conj().T) == 0.0


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
    """The grid pulse loop shares each distinct angle's trig and builds batches
    of pulses at once, bit for bit."""

    GRIDS = {
        "scalar": 0.013,
        "1-D": np.geomspace(1e-4, 1e-1, 9),
        # 10 pulses per batch: sk3 and or-second-xz span several
        "100 points": np.geomspace(1e-4, 1e-1, 100),
        "(E,1)x(1,F)": (np.linspace(-0.1, 0.1, 5)[:, None], np.geomspace(1e-3, 1e-1, 4)[None, :]),
        "contour": CONTOUR_EPS,
    }

    @staticmethod
    def _fractions(kind, grid):
        if isinstance(grid, tuple):
            return grid
        # the grid on the fraction(s) the model carries
        return {"ple": (grid, 0.0), "ore": (0.0, grid), "sim": (grid, grid / 2.0)}[kind]

    @staticmethod
    def _lone_pulse(pulse, kind, eps, f):
        """One pulse's matrix from the closed form, outside the pulse loop."""
        if kind == "ple":
            return _axis_angle(pulse.angle * (1.0 + eps), pulse.phase, 1.0, 0.0)
        return _axis_angle(pulse.angle, pulse.phase, 1.0 + eps if kind == "sim" else 1.0, f)

    @pytest.mark.parametrize("grid", list(GRIDS), ids=list(GRIDS))
    @pytest.mark.parametrize("kind", ["ple", "ore", "sim"])
    @pytest.mark.parametrize("name", ["sk3", "sk2rot", "or-second-xz", "simultaneous"])
    def test_residual_grid_equals_per_pulse_chain(self, name, kind, grid):
        seq = build(name, math.pi)
        # fewer distinct angles than pulses, so the loop shares work
        assert len({p.angle for p in seq}) < len(seq.pulses)
        eps, f = self._fractions(kind, self.GRIDS[grid])
        u = su2.rotation(seq.target.angle, seq.target.phase)
        got = _columns_of(seq.pulses, kind, eps, f, u)
        want = _column_steps((pulse_matrix(p, kind, eps, f) for p in seq), u)
        assert got.tobytes() == want[..., :2].tobytes()
        lone = _column_steps((self._lone_pulse(p, kind, eps, f) for p in seq), u)
        assert got.tobytes() == lone[..., :2].tobytes()

    @pytest.mark.parametrize("eps", [np.geomspace(1e-4, 1e-1, 7), CONTOUR_EPS], ids=["real", "contour"])
    def test_pulse_columns_with_repeated_angles(self, eps):
        thetas = np.radians([20.0, 75.0, 130.0, 180.0])
        seqs = [build("sk2rot", theta) for theta in thetas]
        table = np.array([[(p.angle, p.phase) for p in seq] for seq in seqs])
        columns = [_PulseColumn(table[:, j, 0, None], table[:, j, 1, None]) for j in range(table.shape[1])]
        assert len({c.angle.tobytes() for c in columns}) < len(columns)
        # 17 columns: one batch on the real grid, batches of 8, 8 and 1 on the contour
        u = np.stack([su2.rotation(seq.target.angle, seq.target.phase) for seq in seqs])[:, None]
        got = _columns_of(columns, "ple", eps, 0.0, u)
        want = _column_steps((pulse_matrix(c, "ple", eps, 0.0) for c in columns), u)[..., :2]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        lone = _column_steps((self._lone_pulse(c, "ple", eps, 0.0) for c in columns), u)
        assert got.tobytes() == lone[..., :2].tobytes()

    @pytest.fixture
    def phase_part_calls(self, monkeypatch):
        """The leading shape of the c argument of every _phase_part call."""
        calls, phase_part = [], su2._phase_part
        monkeypatch.setattr(su2, "_phase_part", lambda *args: calls.append(np.shape(args[0])) or phase_part(*args))
        return calls

    @pytest.mark.parametrize("kind", ["ple", "ore", "sim"])
    def test_scalar_point_is_one_batch(self, kind, phase_part_calls):
        seq = build("sk3", math.pi)
        residual_columns(seq.pulses, kind, 0.013, 0.007, su2.IDENTITY)
        assert phase_part_calls == [(24,)]

    def test_contour_batches(self, phase_part_calls):
        # or-second-xz's 35 pulses against 32 nodes: full batches, then the rest
        seq = build("or-second-xz", math.pi)
        residual_columns(seq.pulses, "ore", 0.0, CONTOUR_EPS, su2.IDENTITY)
        size = su2._BATCH_POINTS // len(CONTOUR_EPS)
        assert size < len(seq.pulses)
        full, rest = divmod(len(seq.pulses), size)
        assert phase_part_calls == [(size, 32)] * full + [(rest, 32)] * (rest > 0)

    def test_large_column_grid_goes_pulse_by_pulse(self, phase_part_calls):
        # angle-scan's 24-angle grids: stacking their pulses would multiply peak memory
        seqs = [build("sk2rot", theta) for theta in np.radians(np.linspace(140.0, 180.0, 24))]
        table = np.array([[(p.angle, p.phase) for p in seq] for seq in seqs])
        columns = [_PulseColumn(table[:, j, 0, None], table[:, j, 1, None]) for j in range(table.shape[1])]
        residual_columns(columns, "ple", CONTOUR_EPS, 0.0, su2.IDENTITY)
        assert phase_part_calls == [(1, 24, 32)] * len(columns)

    def test_signed_zero_angles_keep_their_own_matrices(self):
        pulses = [Pulse(0.0, 0.4), Pulse(-0.0, 0.4)]
        for kind in ("ple", "ore", "sim"):
            got = [m for batch in su2._pulse_matrices(pulses, kind, 0.01, 0.02) for m in batch]
            assert len(got) == len(pulses)
            for p, m in zip(pulses, got):
                assert m.tobytes() == pulse_matrix(p, kind, 0.01, 0.02).tobytes()

    @pytest.mark.parametrize("kind", ["ore", "sim"])
    def test_negative_angle_after_same_angle_rejected(self, kind):
        pulses = [Pulse(1.0, 0.3), Pulse(-1.0, 0.0)]
        assert pulses[1].angle == -pulses[0].angle < 0.0
        with pytest.raises(ValueError, match="nonnegative angles only"):
            residual_columns(pulses, kind, 0.01, 0.02, su2.IDENTITY)
        residual_columns(pulses, "ple", 0.01, 0.02, su2.IDENTITY)  # fine

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
            residual_columns([], kind, 0.0, 0.01, su2.IDENTITY)
        with pytest.raises(ValueError, match=match):
            series.propagator_series(corpse.pulses[0], kind, 2)
        with pytest.raises(ValueError, match=match):
            series.residual(corpse.pulses, corpse.target, kind, 2)
        with pytest.raises(ValueError, match=match):
            ErrorModel(kind)

    def test_large_float_grid_equals_lone_pulses(self):
        # 2000 points: one pulse per batch, each phase's cosine read from the plan
        grid = np.geomspace(1e-4, 1e-1, 2000) * (1.0 + 0.5j)
        seq = build("or-second-xz", math.pi)
        for kind in ("ple", "ore", "sim"):
            eps, f = self._fractions(kind, grid)
            got = _columns_of(seq.pulses, kind, eps, f)
            lone = _column_steps((self._lone_pulse(p, kind, eps, f) for p in seq), su2.IDENTITY)
            assert got.tobytes() == lone[..., :2].tobytes()


#: one scalar (eps, f) point per model, the fraction a model does not carry left at 0
SCALAR_POINTS = {"ple": (0.013, 0.0), "ore": (0.0, 0.007), "sim": (0.013, 0.007)}


class TestScalarPointSteps:
    """At a scalar point the kernel steps on Python complex numbers, and W
    equals the numpy-scalar column steps of :func:`_column_steps` byte for byte."""

    @staticmethod
    def _assert_steps_match(pulses, kind, eps, f, u):
        got = _columns_of(pulses, kind, eps, f, u)
        want = _column_steps((pulse_matrix(p, kind, eps, f) for p in pulses), u)[..., :2]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        model = ErrorModel(kind, epsilon=eps, f=f)
        want = _column_steps((propagator(p, model) for p in pulses), su2.IDENTITY)
        assert compose(pulses, model).tobytes() == want[[0, 2, 1, 3]].tobytes()  # w00, w01, w10, w11

    def test_entries_are_python_complex(self):
        seq = build("sk3", math.pi)
        entries = residual_columns(seq.pulses, "sim", 0.013, 0.007, su2.rotation(math.pi, 0.0))
        assert all(type(w) is complex for w in entries)

    @pytest.mark.parametrize("kind", ["ple", "ore", "sim"])
    def test_catalog(self, kind):
        eps, f = SCALAR_POINTS[kind]
        for name in CATALOG:
            for theta in (math.pi, math.radians(37.0), math.radians(123.0)):
                try:
                    seq = build(name, theta)
                except ValueError:  # sk3 and some off-resonance entries take 180 degrees only
                    continue
                u = su2.rotation(seq.target.angle, seq.target.phase)
                self._assert_steps_match(seq.pulses, kind, eps, f, u)

    def test_complex_scalar_point(self):
        seq = build("sk2rot", 2.0)
        got = _columns_of(seq.pulses, "ple", CONTOUR_EPS[5], 0.0)
        want = _column_steps((pulse_matrix(p, "ple", CONTOUR_EPS[5], 0.0) for p in seq), su2.IDENTITY)
        assert got.tobytes() == want[..., :2].tobytes()

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(ANGLES, PHASES), min_size=1, max_size=24), st.tuples(ANGLES, PHASES), SMALL, SMALL)
    def test_random_pulse_lists(self, pairs, target, eps, f):
        u = su2.rotation(*target)
        for kind in ("ple", "ore", "sim"):
            # off resonance takes nonnegative angles only
            pulses = [Pulse(a if kind == "ple" else abs(a), phi) for a, phi in pairs]
            point = {"ple": (eps, 0.0), "ore": (0.0, f), "sim": (eps, f)}[kind]
            self._assert_steps_match(pulses, kind, *point, u)


class TestPlanMemo:
    """The plan of the most recent pulse tuple is kept; lists are planned on every call."""

    @pytest.fixture(autouse=True)
    def cold(self, monkeypatch):
        monkeypatch.setattr(su2, "_last_plan", None)

    @staticmethod
    def _cold(pulses, kind, eps, f):
        su2._last_plan = None
        return _columns_of(pulses, kind, eps, f)

    def test_mutated_list_gives_new_result(self):
        pulses = list(build("bb1", math.pi).pulses)
        first = _columns_of(pulses, "ple", 0.013, 0.0)
        pulses[1] = Pulse(pulses[1].angle, pulses[1].phase + 0.5)
        pulses.append(Pulse(0.7, 1.1))
        got = _columns_of(pulses, "ple", 0.013, 0.0)
        assert not np.array_equal(got, first)
        want = _column_steps((pulse_matrix(p, "ple", 0.013, 0.0) for p in pulses), su2.IDENTITY)
        assert got.tobytes() == want[..., :2].tobytes()
        assert su2._last_plan is None

    def test_mutated_column_list_gives_new_result(self):
        columns = [_PulseColumn(np.full((3, 1), 1.0), np.full((3, 1), 0.2)) for _ in range(4)]
        first = _columns_of(columns, "ple", CONTOUR_EPS, 0.0)
        columns[2].phase[:] = 1.4
        columns[3].angle[1] = 2.5
        got = _columns_of(columns, "ple", CONTOUR_EPS, 0.0)
        assert not np.array_equal(got, first)
        want = _column_steps((pulse_matrix(c, "ple", CONTOUR_EPS, 0.0) for c in columns), su2.IDENTITY)
        assert got.tobytes() == want[..., :2].tobytes()

    def test_tuple_of_columns_not_kept(self):
        columns = tuple(_PulseColumn(np.full((3, 1), 1.0), np.full((3, 1), 0.2)) for _ in range(2))
        residual_columns(columns, "ple", 0.01, 0.0, su2.IDENTITY)
        assert su2._last_plan is None

    def test_negative_angle_refused_after_ple_hit(self):
        pulses = (Pulse(1.0, 0.3), Pulse(-1.0, 0.0))
        residual_columns(pulses, "ple", 0.01, 0.0, su2.IDENTITY)
        residual_columns(pulses, "ple", 0.02, 0.0, su2.IDENTITY)
        assert su2._last_plan[0] is pulses
        for kind in ("ore", "sim"):
            with pytest.raises(ValueError, match="nonnegative angles only"):
                residual_columns(pulses, kind, 0.01, 0.02, su2.IDENTITY)

    @pytest.mark.parametrize("grid", ["scalar", "100 points", "contour"])
    def test_interleaved_tuples_match_cold_calls(self, grid):
        a, b = build("sk3", math.pi).pulses, build("or-second-xz", math.pi).pulses
        for kind in ("ple", "ore", "sim"):
            eps, f = TestPulseLoop._fractions(kind, TestPulseLoop.GRIDS[grid])
            cold = {id(p): self._cold(p, kind, eps, f).tobytes() for p in (a, b)}
            for pulses in (a, a, b, a, b, b):
                assert _columns_of(pulses, kind, eps, f).tobytes() == cold[id(pulses)]
                assert su2._last_plan[0] is pulses

    def test_kept_arrays_refuse_writes(self):
        pulses = build("sk3", math.pi).pulses
        residual_columns(pulses, "sim", 0.013, 0.007, su2.IDENTITY)
        kept, plan = su2._last_plan
        assert kept is pulses
        for array in (plan.angles, plan.index, plan.trig):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


def _matrix_readout(pulses, u):
    """Sigma norms of degree 0..3 read off the matrices W = V U^dag of
    :func:`_matmul_chain`, and max|W|: the reference for the column chain."""
    w = _matmul_chain((pulse_matrix(p, "ple", CONTOUR_EPS, 0.0) for p in pulses), u)
    w01, w10 = w[..., 0, 1], w[..., 1, 0]
    sigma = np.stack([w01 + w10, 1j * (w01 - w10), w[..., 0, 0] - w[..., 1, 1]]) / 2.0
    return np.sqrt((np.abs(taylor_coefficients(sigma)) ** 2).sum(axis=0)), np.abs(w).max()


def _random_pulses(count, seed):
    rng = np.random.default_rng(seed)
    angles, phases = rng.uniform(0.0, 2.0 * math.pi, (2, count))
    return tuple(Pulse(a, p) for a, p in zip(angles, phases)), su2.rotation(*rng.uniform(0.0, 2.0 * math.pi, 2))


class TestContourColumns:
    """The column chain of contour_sigma_norms agrees with the matrix read-out
    within a few roundings of the Cauchy sum, eps_mach max|W| / r^3 each."""

    BOUND = 1e-13

    @pytest.mark.parametrize("name", ["bb1", "sk2", "sk2rot"])
    def test_catalog_agrees_with_matrix_readout(self, name):
        thetas = np.radians(np.linspace(10.0, 180.0, 18))
        seqs = [build(name, theta) for theta in thetas]
        for seq in seqs:
            u = su2.rotation(seq.target.angle, seq.target.phase)
            want, w_max = _matrix_readout(seq.pulses, u)
            assert np.abs(contour_sigma_norms(seq.pulses, u) - want).max() <= self.BOUND * w_max
        # the batched form: pulse columns against a stack of targets
        table = np.array([[(p.angle, p.phase) for p in seq] for seq in seqs])
        columns = [_PulseColumn(table[:, j, 0, None], table[:, j, 1, None]) for j in range(table.shape[1])]
        u = np.stack([su2.rotation(seq.target.angle, seq.target.phase) for seq in seqs])[:, None]
        want, w_max = _matrix_readout(columns, u)
        got = contour_sigma_norms(columns, u)
        assert got.shape == want.shape == (len(seqs), 4)
        assert np.abs(got - want).max() <= self.BOUND * w_max

    @pytest.mark.parametrize("count", range(1, 17))
    def test_random_pulses_agree_with_matrix_readout(self, count):
        pulses, u = _random_pulses(count, 20071108 + count)
        want, w_max = _matrix_readout(pulses, u)
        got = contour_sigma_norms(pulses, u)
        # random lists carry every degree, 0 included
        assert np.all(want > 1e-6)
        assert np.abs(got - want).max() <= self.BOUND * w_max

    @pytest.mark.parametrize("name", ["simultaneous", "or-second-corpse"])
    def test_sim_torus_agrees_with_residual_grid(self, name):
        # the entries the eps^2 f^2 read-out takes, under both errors at once
        seq = build(name, math.pi)
        u = su2.rotation(seq.target.angle, seq.target.phase)
        eps, f = CONTOUR_EPS[:, None], CONTOUR_EPS[None, :]
        w = _matmul_chain((pulse_matrix(p, "sim", eps, f) for p in seq.pulses), u)
        got = np.stack(residual_columns(seq.pulses, "sim", eps, f, u), axis=-1)
        want = w.reshape(w.shape[:-2] + (4,))[..., [0, 2]]  # w00, w10
        assert got.shape == want.shape == (32, 32, 2)
        assert np.abs(got - want).max() <= self.BOUND * np.abs(w).max()

    @pytest.mark.parametrize("pulses", [[], ()], ids=["list", "tuple"])
    def test_empty_pulse_list_refused(self, pulses):
        with pytest.raises(ValueError, match="empty pulse sequence"):
            contour_sigma_norms(pulses, su2.IDENTITY)


#: real grids of the second-column test, as (eps, f) under each model
REAL_GRIDS = {
    "scalar": SCALAR_POINTS,
    "1-D": {"ple": (np.geomspace(1e-4, 1e-1, 9), 0.0), "ore": (0.0, np.geomspace(1e-4, 1e-1, 9)),
            "sim": (np.geomspace(1e-4, 1e-1, 9), np.geomspace(1e-4, 1e-1, 9) / 3.0)},
    "(E,1)x(1,F)": dict.fromkeys(("ple", "ore", "sim"),
                                 (np.linspace(-0.1, 0.1, 5)[:, None], np.geomspace(1e-3, 1e-1, 4)[None, :])),
}


def _mirrored(values, axes):
    """``values`` on a contour at the conjugate nodes: node r e^(2 pi i j/N)
    mirrors to index (-j) mod N along each of ``axes``."""
    return np.roll(np.flip(values, axes), 1, axes)


class TestSecondColumn:
    """W's second column, which the numeric route never composes, is the
    one its first column implies: explicitly composed, it equals
    (-conj(w10), conj(w00)) at real fractions and their mirror on contours,
    whose Cauchy sums are the conjugated coefficients that
    ``contour_sigma_norms`` and the cross coefficient read.

    On a contour the two differ by rounding: the composition's, one rounding
    per pulse in each, and the last bit by which a computed node and the
    conjugate of its mirror differ, which W's slope in the fractions, up to
    the total rotation angle, amplifies.  So the bound is 8 (n + sum|theta|)
    eps_mach max|W| for n pulses; a single 9 rad pulse on the torus reads
    9 eps_mach max|W|."""

    @staticmethod
    def _explicit(pulses, kind, eps, f, u):
        return _column_steps((pulse_matrix(p, kind, eps, f) for p in pulses), u)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(ANGLES, PHASES), min_size=1, max_size=24), st.tuples(ANGLES, PHASES))
    def test_random_pulse_lists(self, pairs, target):
        u = su2.rotation(*target)
        for kind in ("ple", "ore", "sim"):
            # off resonance takes nonnegative angles only
            pulses = [Pulse(a if kind == "ple" else abs(a), phi) for a, phi in pairs]
            # at real fractions, equal under ==: conjugation commutes with rounding
            for grids in REAL_GRIDS.values():
                eps, f = grids[kind]
                w = self._explicit(pulses, kind, eps, f, u)
                w00, w10 = residual_columns(pulses, kind, eps, f, u)
                assert np.all(w[..., 2] == -np.conjugate(w10)) and np.all(w[..., 3] == np.conjugate(w00))
            # on contours, within the rounding that a node and its conjugate's mirror differ by
            contours = [({"ple": (nodes, 0.0), "ore": (0.0, nodes), "sim": (nodes, nodes / 2.0)}[kind], -1)
                        for nodes in (CONTOUR_EPS, su2._contour(64)[0])]
            if kind == "sim":
                contours.append(((CONTOUR_EPS[:, None], CONTOUR_EPS[None, :]), (0, 1)))
            for (eps, f), axes in contours:
                w = self._explicit(pulses, kind, eps, f, u)
                w00, w10 = residual_columns(pulses, kind, eps, f, u)
                derived = np.stack([-np.conjugate(_mirrored(w10, axes)), np.conjugate(_mirrored(w00, axes))], axis=-1)
                total = sum(abs(p.angle) for p in pulses)
                bound = 8 * (len(pulses) + total) * np.finfo(float).eps * np.abs(w).max()
                assert np.abs(w[..., 2:] - derived).max() <= bound
