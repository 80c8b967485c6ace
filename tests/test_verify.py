"""Numeric cross-checks: sweeps, slope fits, crossover scan, surfaces."""

import ast
import inspect
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compulse.sequences
import compulse.series
import compulse.su2
import compulse.verify
from compulse import Pulse, fidelity_series, leading_error, residual
from compulse.sequences import CATALOG, build, corpse, ple_pure_error, shift_phases, solve_third_order
from compulse.su2 import CONTOUR_EPS, contour_sigma_norms, pulse_matrix, rotation, taylor_coefficients
from compulse.verify import (
    _decided_bracket,
    _degree3_magnitudes,
    crossover_scan,
    estimate_order,
    fidelity_surface,
    fit_leading_coefficient,
    geometric_grid,
    infidelity_grid,
    infidelity_ld,
    inverse_quality,
)

PI = math.pi


class TestEstimateOrder:
    def test_simple_pulse_first_order(self):
        sweep = estimate_order(build("simple", PI), "eps")
        assert sweep.order == 1
        assert sweep.slope == pytest.approx(2.0, abs=0.05)

    def test_bb1_third_order(self):
        sweep = estimate_order(build("bb1", PI), "eps")
        assert sweep.order == 3
        assert sweep.slope == pytest.approx(6.0, abs=0.2)

    def test_corpse_second_order(self):
        sweep = estimate_order(build("corpse", PI), "f")
        assert sweep.order == 2

    def test_exact_identity_flagged(self):
        pulses = (
            *ple_pure_error("x1", 0.7).pulses,
            *ple_pure_error("x1inv", 0.7).pulses,
        )
        sweep = estimate_order(pulses, "eps")
        assert sweep.beyond_resolution
        assert sweep.order is None

    def test_custom_grid(self):
        grid = geometric_grid(1e-3, 3e-2, 10)
        sweep = estimate_order(build("sk1", PI), "eps", grid=grid)
        assert sweep.order == 2

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_unsorted_grid_sorted_first(self, order):
        # the fit is trimmed from the large-x end, so it needs an ascending grid
        seq = build("corpse", math.radians(150.0))
        grid = geometric_grid(1e-3, 1e-1, 17)
        ascending = estimate_order(seq, "f", grid=grid)
        assert ascending.values.tobytes() == grid.tobytes()
        shuffled = grid[::-1] if order == "reversed" else np.random.default_rng(3).permutation(grid)
        sweep = estimate_order(seq, "f", grid=shuffled)
        assert sweep.values.tobytes() == grid.tobytes()
        assert sweep.infidelities.tobytes() == ascending.infidelities.tobytes()
        assert (sweep.slope, sweep.order, sweep.points_used) == (ascending.slope, 2, ascending.points_used)

    @pytest.mark.parametrize(
        "grid,match",
        [
            ([], "non-empty 1-D"),
            ([[1e-3, 1e-2], [2e-2, 3e-2]], "non-empty 1-D"),
            ([1e-3, -1e-2, 2e-2, 5e-2], "finite, nonnegative"),
            ([1e-3, float("nan"), 1e-2, 2e-2, 5e-2], "finite, nonnegative"),
            ([1e-3, 1e-2, float("inf")], "finite, nonnegative"),
        ],
        ids=["empty", "2-D", "negative", "nan", "inf"],
    )
    def test_bad_grid_rejected(self, grid, match):
        with pytest.raises(ValueError, match=match):
            estimate_order(build("bb1", PI), "eps", grid=grid)

    @pytest.mark.parametrize("axis", ["x", "epsilon", "ple"])
    def test_unknown_axis_rejected(self, axis):
        seq = build("bb1", PI)
        with pytest.raises(ValueError, match=f"unknown sweep axis '{axis}'"):
            estimate_order(seq, axis)
        with pytest.raises(ValueError, match=f"unknown sweep axis '{axis}'"):
            fit_leading_coefficient(seq, axis, 6)


CATALOG_AXES = [
    ("simple", PI, "eps"),
    ("sk1", PI, "eps"),
    ("sk2", PI, "eps"),
    ("sk2rot", PI, "eps"),
    ("bb1", PI, "eps"),
    ("sk3", PI, "eps"),
    ("corpse", PI, "f"),
    ("short-corpse", PI, "f"),
    ("or-first", PI, "f"),
    ("or-first-general", math.radians(60.0), "f"),
    ("or-timesym", PI, "f"),
    ("or-second-corpse", PI, "f"),
    ("or-second-xz", PI, "f"),
    ("simultaneous", PI, "eps"),
    ("simultaneous", PI, "f"),
]


class TestSeriesNumericAgreement:
    @pytest.mark.parametrize("name,theta,axis", CATALOG_AXES)
    def test_fit_matches_series_coefficient(self, name, theta, axis):
        from compulse import leading_error

        seq = build(name, theta)
        kind = "ple" if axis == "eps" else "ore"
        rep = leading_error(residual(seq.pulses, seq.target, kind, 8))
        fitted = fit_leading_coefficient(seq, axis, rep.infidelity_degree)
        assert fitted == pytest.approx(rep.infidelity_coefficient, rel=5e-3)


class TestFitLeadingCoefficient:
    def test_bb1(self):
        c = fit_leading_coefficient(build("bb1", PI), "eps", 6)
        assert c == pytest.approx(5 * PI**6 / 1024, rel=5e-3)

    def test_corpse(self):
        c = fit_leading_coefficient(build("corpse", PI), "f", 4)
        assert c == pytest.approx((2 * math.sqrt(3) - PI) ** 2 / 32, rel=5e-3)

    def test_or_first(self):
        c = fit_leading_coefficient(build("or-first", PI), "f", 4)
        assert c == pytest.approx((60 + PI**2) / 32, rel=5e-3)

    def test_noise_floor_flagged(self):
        pulses = (
            *ple_pure_error("x1", 0.7).pulses,
            *ple_pure_error("x1inv", 0.7).pulses,
        )
        with pytest.raises(ValueError):
            fit_leading_coefficient(pulses, "eps", 2)

    @pytest.mark.parametrize("eps", [1e-4, 1e-3])
    def test_bb1_resolved_below_1e16(self, eps):
        # 1 - |Tr/2| cancels to nothing here even in 80-bit extended precision
        seq = build("bb1", PI)
        value = infidelity_ld(seq.pulses, "ple", eps, 0.0, seq.target)
        assert value == pytest.approx(5 * PI**6 / 1024 * eps**6, rel=1e-4, abs=0.0)


@pytest.fixture(scope="module")
def scan():
    thetas = np.radians(np.linspace(30.0, 180.0, 26))
    return crossover_scan(["bb1", "sk2rot"], thetas)


@pytest.fixture(scope="module")
def surface():
    return fidelity_surface(build("simultaneous", PI))


class TestCrossoverScan:

    def test_crossover_location(self, scan):
        assert scan.crossover_theta is not None
        assert math.degrees(scan.crossover_theta) == pytest.approx(168.7, abs=2.0)

    def test_ratio_at_pi(self, scan):
        ratio = scan.magnitudes["bb1"][-1] / scan.magnitudes["sk2rot"][-1]
        assert 1.05 <= ratio <= 1.15

    def test_bb1_magnitude_roughly_linear(self, scan):
        keep = (np.degrees(scan.thetas) >= 30.0) & (np.degrees(scan.thetas) <= 150.0)
        mags = scan.magnitudes["bb1"][keep]
        thetas = scan.thetas[keep]
        corr = np.corrcoef(thetas, mags)[0, 1]
        assert corr >= 0.99

    def test_identical_variants_flagged(self):
        thetas = np.radians(np.linspace(90.0, 180.0, 4))
        scan = crossover_scan(["bb1", "bb1"], thetas)
        assert scan.flagged
        assert scan.crossover_theta is None

    def test_needs_two_variants(self):
        with pytest.raises(ValueError):
            crossover_scan(["bb1"], np.radians([90.0, 180.0]))

    def test_rejects_uncorrected_variant(self):
        for names in (["simple", "bb1"], ["sk1", "sk2"]):
            with pytest.raises(ValueError):
                crossover_scan(names, np.radians([90.0, 180.0]))

    def test_readme_range_crossover(self):
        scan = crossover_scan(["bb1", "sk2rot"], np.radians(np.linspace(10.0, 180.0, 86)))
        assert not scan.flagged
        assert scan.crossover_theta == pytest.approx(2.9441399304550355, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("ends", [(10.0, 180.0), (180.0, 10.0)], ids=["ascending", "descending"])
    def test_readme_range_crossover_is_exact(self, ends):
        scan = crossover_scan(["bb1", "sk2rot"], np.radians(np.linspace(*ends, 86)))
        assert scan.crossover_theta == 2.9441399304550355

    def test_magnitudes_own_their_data(self):
        # a view would keep the whole per-degree norm table alive in the result
        for thetas in (np.radians([120.0]), np.radians(np.linspace(90.0, 180.0, 5))):
            scan = crossover_scan(["bb1", "sk2rot", "sk2"], thetas)
            for name, mags in scan.magnitudes.items():
                assert mags.base is None, name
                assert mags.shape == thetas.shape

    @pytest.mark.parametrize(
        "thetas",
        [[], [[1.0, 2.0], [2.5, 3.0]], 2.0, [1.0, math.nan], [1.0, math.inf]],
        ids=["empty", "2-d", "scalar", "nan", "inf"],
    )
    def test_rejects_malformed_angle_grid(self, thetas):
        with pytest.raises(ValueError, match="angle grid"):
            crossover_scan(["bb1", "sk2rot"], thetas)

    def test_rejects_pulse_count_changing_over_the_grid(self, monkeypatch):
        def build_by_angle(name, theta):
            return build("bb1" if theta < 2.0 else "sk2rot", theta)

        monkeypatch.setattr(compulse.verify, "build", build_by_angle)
        with pytest.raises(ValueError, match="pulse count .* angle grid"):
            crossover_scan(["bb1", "sk2rot"], [1.0, 2.5, 3.0])


README_RANGE = np.radians(np.linspace(10.0, 180.0, 86))
README_CROSSOVER = 2.9441399304550355


def _reference_crossover(names, thetas):
    """Crossover and flag of a bisection that composes the difference at
    every step's midpoint, the reference that decided steps must match."""
    a, b = names
    diff = _degree3_magnitudes(a, thetas) - _degree3_magnitudes(b, thetas)
    if np.max(np.abs(diff)) < 1e-12:
        return None, True
    for i in range(len(thetas) - 1):
        if diff[i] * diff[i + 1] < 0.0:
            lo, hi = thetas[i], thetas[i + 1]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                dm = _degree3_magnitudes(a, (mid,))[0] - _degree3_magnitudes(b, (mid,))[0]
                if dm == 0.0:
                    lo = hi = mid
                    break
                if (dm < 0.0) == (diff[i] < 0.0):
                    lo = mid
                else:
                    hi = mid
            return float(0.5 * (lo + hi)), False
    return None, True


def _seeded_grid(shape, seed):
    """An angle-scan grid (24 points from 140-150 to 180 degrees) or a
    compare grid (9 points from 158-162 to 174-178 degrees)."""
    rng = np.random.default_rng(seed)
    if shape == "angle-scan":
        return np.radians(np.linspace(rng.uniform(140.0, 150.0), 180.0, 24))
    return np.radians(np.linspace(rng.uniform(158.0, 162.0), rng.uniform(174.0, 178.0), 9))


def _count_one_angle_calls(monkeypatch):
    calls = []
    batched = compulse.verify._degree3_magnitudes

    def counted(name, thetas):
        if len(thetas) == 1:
            calls.append(thetas[0])
        return batched(name, thetas)

    monkeypatch.setattr(compulse.verify, "_degree3_magnitudes", counted)
    return calls


class TestDecidedBisection:
    """The bisection composes only the steps its bracket leaves undecided,
    and finds the same bits as one that composes every step."""

    @pytest.mark.parametrize("order", ["ascending", "reversed"])
    @pytest.mark.parametrize(
        "shape, seed",
        [("readme", None)] + [(shape, seed) for shape in ("angle-scan", "compare") for seed in (1, 2, 3)],
    )
    def test_crossover_bits_match_full_bisection(self, shape, seed, order):
        thetas = README_RANGE if shape == "readme" else _seeded_grid(shape, seed)
        if order == "reversed":
            thetas = thetas[::-1].copy()
        scan = crossover_scan(["bb1", "sk2rot"], thetas)
        assert (scan.crossover_theta, scan.flagged) == _reference_crossover(("bb1", "sk2rot"), thetas)
        assert scan.crossover_theta is not None

    def test_readme_range_composes_at_most_46_angles(self, monkeypatch):
        calls = _count_one_angle_calls(monkeypatch)
        scan = crossover_scan(["bb1", "sk2rot"], README_RANGE)
        assert scan.crossover_theta == README_CROSSOVER
        # a bisection that composes every step makes 92 one-angle calls here
        assert len(calls) <= 46

    def test_reversed_readme_range_is_exact(self):
        scan = crossover_scan(["bb1", "sk2rot"], README_RANGE[::-1])
        assert scan.crossover_theta == README_CROSSOVER
        assert not scan.flagged

    @pytest.mark.parametrize("descending", [False, True])
    def test_bracket_oriented_by_value(self, descending):
        # a straight line through 0.3 with slope -1: regula falsi hits the
        # root at once, and the probes land 3 floors either side of it
        lo, hi = ((0.0, 0.3), (1.0, -0.7)) if not descending else ((1.0, -0.7), (0.0, 0.3))
        (l, d_l), (h, d_h) = _decided_bracket(lambda x: 0.3 - x, lo, hi, 1e-3)
        assert (d_l > 0.0) == (lo[1] > 0.0) and (d_h > 0.0) == (hi[1] > 0.0)
        assert abs(d_l) > 1e-3 and abs(d_h) > 1e-3
        assert (l, h) == pytest.approx((0.297, 0.303) if not descending else (0.303, 0.297), abs=1e-12)

    def test_stalled_pre_pass_leaves_the_cell_to_bisection(self):
        # x^20 - 0.5 is too curved for 8 steps to come within 1e-300 of zero
        calls = []

        def difference(x):
            calls.append(x)
            return x**20 - 0.5

        lo, hi = (0.0, -0.5), (1.0, 0.5)
        assert _decided_bracket(difference, lo, hi, 1e-300) == [lo, hi]
        assert len(calls) == 8


def _one_angle_magnitude(name, theta):
    """Degree-3 sigma norm of one sequence composed from its own pulses."""
    seq = build(name, theta)
    return contour_sigma_norms(seq.pulses, rotation(seq.target.angle, seq.target.phase))[3]


class TestBatchedMagnitudes:
    """One composition over the whole angle grid gives the per-angle values bit for bit."""

    @pytest.mark.parametrize("name", ["bb1", "sk2", "sk2rot"])
    @pytest.mark.parametrize(
        "thetas",
        [np.radians([168.7]), np.radians([37.0, 180.0]), np.radians(np.linspace(140.0, 180.0, 24))],
        ids=["1", "2", "24"],
    )
    def test_byte_equal_to_per_angle_composition(self, name, thetas):
        want = np.array([_one_angle_magnitude(name, t) for t in thetas])
        got = _degree3_magnitudes(name, thetas)
        assert got.tobytes() == want.tobytes()

    def test_rejects_uncorrected_angle_in_batch(self):
        with pytest.raises(ValueError, match="not second-order correct"):
            _degree3_magnitudes("simple", np.radians([90.0, 180.0]))


class TestTargetMemo:
    """U of the most recent target is kept, keyed by its value."""

    @pytest.fixture(autouse=True)
    def cold(self, monkeypatch):
        monkeypatch.setattr(compulse.verify, "_last_target", None)
        monkeypatch.setattr(compulse.su2, "_last_plan", None)

    @staticmethod
    def _cold(seq, kind, eps, f):
        compulse.verify._last_target = None
        compulse.su2._last_plan = None
        return infidelity_grid(seq.pulses, kind, eps, f, seq.target)

    def test_target_kept_by_value(self):
        seq = build("sk3", PI)
        assert seq.target is not seq.target
        infidelity_ld(seq.pulses, "ple", 0.01, 0.0, seq.target)
        kept = compulse.verify._last_target
        infidelity_ld(seq.pulses, "ple", 0.02, 0.0, seq.target)
        assert compulse.verify._last_target is kept
        assert len(kept) == 2
        assert np.array_equal(kept[1], rotation(PI, 0.0))

    def test_signed_zero_targets_kept_apart(self):
        # the matrices of 0.0 and -0.0 differ in the signs of zeros
        assert rotation(0.0, 0.0).tobytes() != rotation(-0.0, 0.0).tobytes()
        for angle in (0.0, -0.0, 0.0):
            infidelity_grid((Pulse(0.3, 0.2),), "ple", 0.01, 0.0, Pulse(angle, 0.0))
            assert compulse.verify._last_target[1].tobytes() == rotation(angle, 0.0).tobytes()

    @pytest.mark.parametrize("eps", [0.013, geometric_grid()], ids=["point", "grid"])
    def test_interleaved_sequences_match_cold_calls(self, eps):
        seqs = [build("bb1", PI), build("bb1", math.radians(37.0)), build("corpse", PI)]
        for kind in ("ple", "ore", "sim"):
            cold = [self._cold(seq, kind, eps, 0.007).tobytes() for seq in seqs]
            for i in (0, 0, 1, 0, 2, 2, 1):
                got = infidelity_grid(seqs[i].pulses, kind, eps, 0.007, seqs[i].target)
                assert got.tobytes() == cold[i]

    def test_negative_angle_refused_after_ple_hit(self):
        seq = build("simple", -PI / 2)
        assert seq.pulses[0].angle == -PI / 2
        infidelity_ld(seq.pulses, "ple", 0.01, 0.0, seq.target)
        for kind in ("ore", "sim"):
            with pytest.raises(ValueError, match="nonnegative angles only"):
                infidelity_ld(seq.pulses, kind, 0.01, 0.02, seq.target)

    def test_threads_racing_on_the_memos_keep_every_bit(self):
        seqs = [build(name, theta) for name, theta in
                (("bb1", PI), ("bb1", math.radians(37.0)), ("corpse", PI), ("sk3", PI), ("simple", 0.3))]
        want = [self._cold(seq, "sim", 0.013, 0.007).tobytes() for seq in seqs]
        bad, done = [], []

        def work(i):
            for _ in range(200):
                seq = seqs[i]
                if infidelity_grid(seq.pulses, "sim", 0.013, 0.007, seq.target).tobytes() != want[i]:
                    bad.append(i)
            done.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(seqs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(done) == list(range(len(seqs)))
        assert bad == []

    def test_kept_matrices_refuse_writes(self):
        infidelity_ld((Pulse(0.3, 0.2),), "ple", 0.01, 0.0, Pulse(0.3, 0.2))
        for matrix in compulse.verify._last_target[1:]:
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 0.0


class TestContour:
    """Taylor coefficients in eps by the discrete Cauchy integral."""

    @pytest.mark.parametrize("name", ["bb1", "sk2", "sk2rot"])
    def test_degree3_magnitudes_match_series(self, name):
        thetas = np.radians([10.0, 45.0, 90.0, 135.0, 168.7, 180.0])
        scan = crossover_scan([name, name], thetas)
        for theta, got in zip(thetas, scan.magnitudes[name]):
            seq = build(name, theta)
            want = residual(seq.pulses, seq.target, "ple", 3).degree_pauli_norm(3)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("angle, phase", [(0.5, 0.0), (PI / 2, 0.3), (PI, 1.1), (5.0, 4.0), (-2.2, 0.9)])
    def test_single_pulse_coefficients(self, angle, phase):
        p = Pulse(angle, phase)
        m = pulse_matrix(p, "ple", CONTOUR_EPS, 0.0)
        half = p.angle / 2.0
        scale = np.array([half**k / math.factorial(k) for k in range(4)])
        cos_derivs = np.array([math.cos(half), -math.sin(half), -math.cos(half), math.sin(half)])
        sin_derivs = np.array([math.sin(half), math.cos(half), -math.sin(half), -math.cos(half)])
        phase_factor = math.sin(p.phase) - 1j * math.cos(p.phase)
        np.testing.assert_allclose(taylor_coefficients(m[:, 0, 0]), scale * cos_derivs, rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            taylor_coefficients(m[:, 1, 0]), scale * sin_derivs * phase_factor, rtol=0, atol=1e-13
        )

    @pytest.mark.parametrize("kind", ["ore", "sim"])
    def test_tilted_axis_coefficients_match_series(self, kind):
        # complex w or f takes the m = sqrt(w^2 + f^2) continuation
        from compulse.series import propagator_series

        for p in (Pulse(PI, 0.0), Pulse(1.3, 2.1), Pulse(2 * PI, 5.0)):
            eps, f = (CONTOUR_EPS, 0.0) if kind == "sim" else (0.0, CONTOUR_EPS)
            m = pulse_matrix(p, kind, eps, f)
            ser = propagator_series(p, kind, 3)
            for k in range(4):
                i, j = (k, 0) if kind == "sim" else (0, k)
                got = taylor_coefficients(m[:, 0, 0])[k], taylor_coefficients(m[:, 1, 0])[k]
                assert got == pytest.approx((ser.alpha.coeff(i, j), ser.beta.coeff(i, j)), abs=1e-13)

    @pytest.mark.parametrize("eps", [0.0, 1e-3, -0.05, 0.2])
    def test_complex_eps_on_real_axis_matches_real_path(self, eps):
        for p in (Pulse(PI, 0.0), Pulse(1.3, 2.1), Pulse(-2.2, 0.9), Pulse(2 * PI, 5.0)):
            real = pulse_matrix(p, "ple", eps, 0.0)
            analytic = pulse_matrix(p, "ple", complex(eps, 0.0), 0.0)
            for part in (np.real, np.imag):
                assert np.all(np.abs(part(analytic) - part(real)) <= np.spacing(np.abs(part(real))))

    @pytest.mark.parametrize(
        "module", [compulse.verify, compulse.sequences, compulse.su2], ids=["verify.py", "sequences.py", "su2.py"]
    )
    def test_verify_does_not_import_series(self, module):
        with open(module.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert all("series" not in alias.name.split(".") for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                assert "series" not in (node.module or "").split(".")
                assert all(alias.name != "series" for alias in node.names)

    def test_numeric_route_runs_without_series_engine(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the series engine was called")

        for name in ("residual", "sequence_series", "propagator_series"):
            monkeypatch.setattr(compulse.series, name, boom)
        solve_third_order.cache_clear()
        try:
            for name in CATALOG:
                build(name, PI)
            assert estimate_order(build("sk3", PI), "eps").order == 4
            assert crossover_scan(["bb1", "sk2rot"], np.radians([150.0, 165.0, 180.0])).crossover_theta is not None
        finally:
            solve_third_order.cache_clear()


#: pulse angles in (0, 4pi], with the exact pi, 2pi and 4pi pulses drawn on purpose
REFEREE_ANGLES = st.one_of(st.sampled_from([PI, 2 * PI, 4 * PI]), st.floats(0.0, 4 * PI, exclude_min=True))
REFEREE_PULSES = st.builds(Pulse, REFEREE_ANGLES, st.floats(0.0, 2 * PI, exclude_max=True))
REFEREE_GRID = np.geomspace(1e-4, 1e-1, 5)


def _mp_pulse(mp, pulse, kind, eps, f):
    """exp(-i angle m/2 n.sigma) in mpmath, n tilted toward z by the error model."""
    w = mp.mpf(1) if kind == "ore" else 1 + mp.mpf(eps)
    fz = mp.mpf(0) if kind == "ple" else mp.mpf(f)
    m = mp.sqrt(w * w + fz * fz)
    c, s = mp.cos(pulse.angle * m / 2), mp.sin(pulse.angle * m / 2) / m
    sx, sy, sz = s * w * mp.cos(pulse.phase), s * w * mp.sin(pulse.phase), s * fz
    return mp.matrix([[mp.mpc(c, -sz), mp.mpc(-sy, -sx)], [mp.mpc(sy, -sx), mp.mpc(c, sz)]])


def _mp_infidelity(mp, pulses, target, kind, eps, f):
    """1 - |Tr(V U^dag)|/2, the pulses composed in mpmath, first pulse rightmost."""
    v = mp.eye(2)
    for p in pulses:
        v = _mp_pulse(mp, p, kind, eps, f) * v
    w = v * _mp_pulse(mp, target, "ple", 0.0, 0.0).transpose_conj()
    return 1 - abs(w[0, 0] + w[1, 1]) / 2


class TestMpmathReferee:
    """infidelity_grid against a 40-digit composition of random pulse lists,
    on a grid and at each of its points as a scalar call."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.lists(REFEREE_PULSES, min_size=1, max_size=16), REFEREE_PULSES, st.booleans())
    def test_infidelity_grid_within_rounding_of_mpmath(self, mp, pulses, target, target_first):
        target = pulses[0] if target_first else target
        bound = 8 * len(pulses) * np.finfo(float).eps
        for kind in ("ple", "ore", "sim"):
            eps = 0.0 if kind == "ore" else REFEREE_GRID
            f = 0.0 if kind == "ple" else REFEREE_GRID
            got = infidelity_grid(pulses, kind, eps, f, target)
            with mp.workdps(40):
                for x, value in zip(REFEREE_GRID, got):
                    ref = float(mp.sqrt(_mp_infidelity(mp, pulses, target, kind, x, x)))
                    point = infidelity_grid(pulses, kind, 0.0 if kind == "ore" else x, 0.0 if kind == "ple" else x,
                                            target)
                    assert abs(math.sqrt(value) - ref) <= bound, (kind, x)
                    assert abs(math.sqrt(point) - ref) <= bound, (kind, x, "scalar")


class TestInverseQuality:
    def test_plain_pair_first_order(self):
        th = 1.1
        a = build("simple", th)
        b = shift_phases(build("simple", th), PI)
        sweep = inverse_quality(a, b, "ore")
        assert sweep.order == 1

    def test_corpse_pair_third_order(self):
        th = 1.1
        sweep = inverse_quality(corpse(th), shift_phases(corpse(th), PI), "ore")
        assert sweep.order == 3

    def test_exact_pulse_length_inverse(self):
        sweep = inverse_quality(
            ple_pure_error("x1", 0.7), ple_pure_error("x1inv", 0.7), "ple"
        )
        assert sweep.beyond_resolution

    @pytest.mark.parametrize("kind", ["sim", "xyz"])
    def test_unknown_model_kind_rejected(self, kind):
        a = build("simple", 1.1)
        with pytest.raises(ValueError, match=f"model kind 'ple' or 'ore', got '{kind}'"):
            inverse_quality(a, shift_phases(a, PI), kind)

    @pytest.mark.parametrize("theta", [0.9, PI / 2, 2.0])
    def test_short_corpse_inverse_has_smaller_third_order(self, theta):
        def pair_mag(name):
            fwd = build(name, theta)
            bwd = shift_phases(build(name, theta), PI)
            a = residual((*fwd.pulses, *bwd.pulses), Pulse(0.0, 0.0), "ore", 3)
            return a.degree_pauli_norm(3)

        assert pair_mag("short-corpse") < pair_mag("corpse")


class TestFidelitySurface:
    def test_axis_coefficients(self, surface):
        assert surface.coeff_f == pytest.approx(15.0 / 8.0, rel=0.01)
        assert surface.coeff_eps == pytest.approx(5 * PI**6 / 1024, rel=0.01)

    def test_cross_coefficient(self, surface):
        assert surface.coeff_cross == pytest.approx(169 * PI**2 / 32, rel=0.01)

    def test_grid_shape(self, surface):
        assert surface.infidelity.shape == (len(surface.eps_grid), len(surface.f_grid))

    @pytest.mark.parametrize(
        "eps_grid,f_grid,match",
        [
            ([], [], "eps grid must be a non-empty 1-D array"),
            ([math.nan, -0.01], None, "eps grid must hold finite values"),
            ([[0.01, 0.02]], None, "eps grid must be a non-empty 1-D array"),
            (None, [3e-3, math.inf], "f grid must hold finite values"),
        ],
        ids=["empty", "nan", "2-D", "inf-f"],
    )
    def test_bad_grid_rejected(self, eps_grid, f_grid, match):
        # these used to come back as a (0, 0) table, a NaN row, a (1, 1, 2) table and a NaN column
        with pytest.raises(ValueError, match=match):
            fidelity_surface(build("simultaneous", PI), eps_grid, f_grid)

    def test_signed_grid_allowed(self):
        # unlike a 1-D sweep, the table takes signed fractions
        eps, f = np.array([-2e-2, 3e-3, 1e-2]), np.array([5e-3, -1e-2])
        sf = fidelity_surface(build("simultaneous", PI), eps, f)
        assert sf.eps_grid.tobytes() == eps.tobytes() and sf.f_grid.tobytes() == f.tobytes()
        assert sf.infidelity.shape == (3, 2) and np.isfinite(sf.infidelity).all()

    @pytest.mark.parametrize("name", list(CATALOG))
    def test_catalog_surface_matches_series(self, name):
        # the axis degrees are 2 * the series order and the coefficients are the
        # series' leading infidelity terms; fixed degrees 6 and 4 missed on 12 entries.
        # The cross coefficient is read, not fitted, so it is held to 1e-9
        seq = build(name, PI)
        sf = fidelity_surface(seq)
        fs = fidelity_series(residual(seq.pulses, seq.target, "sim", 8))
        for axis, degree, coeff in (("eps", sf.eps_degree, sf.coeff_eps), ("f", sf.f_degree, sf.coeff_f)):
            n = leading_error(residual(seq.pulses, seq.target, "ple" if axis == "eps" else "ore", 8)).order
            assert degree == 2 * n, axis
            exponents = (degree, 0) if axis == "eps" else (0, degree)
            assert coeff == pytest.approx(-fs.coeff(*exponents).real, rel=0.01), axis
        c22 = -fs.coeff(2, 2).real
        assert sf.coeff_cross == pytest.approx(c22, rel=1e-9, abs=1e-9)

    def test_cross_term_read_beside_eps2_f_term(self):
        # or-second-corpse has an eps^2 f term, which a fit on the diagonal eps = f
        # could not separate from eps^2 f^2; the torus read-out takes each apart
        seq = build("or-second-corpse", PI)
        fs = fidelity_series(residual(seq.pulses, seq.target, "sim", 4))
        assert fs.coeff(2, 1).real != 0.0
        assert fidelity_surface(seq).coeff_cross == pytest.approx(-fs.coeff(2, 2).real, rel=1e-9)

    @pytest.mark.parametrize("degrees", [37.0, 123.0, 720.0])
    def test_catalog_cross_coefficient_at_other_angles(self, degrees):
        # sk1 at 37 and 123 degrees was refused by the diagonal fit
        for name in CATALOG:
            try:
                seq = build(name, math.radians(degrees))
            except ValueError:
                continue  # an entry defined at 180 degrees only
            c22 = -fidelity_series(residual(seq.pulses, seq.target, "sim", 4)).coeff(2, 2).real
            got = compulse.verify._cross_coefficient(seq, seq.target)
            assert abs(got - c22) <= 1e-9 * max(1.0, abs(c22)), name

    @pytest.mark.parametrize("count", range(1, 13))
    def test_cross_coefficient_of_random_pulses(self, count):
        # random pulses, then their ideal inverse (reversed, phase + pi), against the identity
        rng = np.random.default_rng(20040521 + count)
        for _ in range(2):
            angles, phases = rng.uniform(0.0, 2.0 * PI, (2, count))
            angles = 2.0 * PI - angles  # in (0, 2 pi]
            pulses = [Pulse(a, p) for a, p in zip(angles, phases)]
            pulses += [Pulse(p.angle, p.phase + PI) for p in reversed(pulses)]
            identity = Pulse(0.0, 0.0)
            c22 = -fidelity_series(residual(pulses, identity, "sim", 4)).coeff(2, 2).real
            got = compulse.verify._cross_coefficient(pulses, identity)
            assert abs(got - c22) <= 1e-9 * max(1.0, abs(c22))

    def test_axis_without_order_refused(self):
        # sk2 at 720 degrees is an exact identity: no order along eps, so no coefficient
        seq = build("sk2", 4 * PI)
        assert estimate_order(seq, "eps").beyond_resolution
        with pytest.raises(ValueError, match="no clean error order along eps"):
            fidelity_surface(seq)

    def test_no_degree_parameters(self):
        params = list(inspect.signature(fidelity_surface).parameters)
        assert params == ["seq", "eps_grid", "f_grid"]

    def test_grid_matches_pointwise(self):
        seq = build("simultaneous", PI)
        eps = np.array([-2e-2, 1e-4, 3e-3])[:, None]
        f = np.array([0.0, 1e-3, 5e-2, -7e-3])[None, :]
        table = infidelity_grid(seq.pulses, "sim", eps, f, seq.target)
        assert table.shape == (3, 4)
        # within rounding, not bit for bit: a scalar point composes on Python
        # complex numbers, whose product is not fused, and reads W through
        # libm's hypot; a grid composes and reads on SIMD arrays
        bound = 2 * len(seq.pulses) * np.finfo(float).eps
        for i, e in enumerate(eps[:, 0]):
            for j, x in enumerate(f[0]):
                point = infidelity_ld(seq.pulses, "sim", e, x, seq.target)
                assert abs(math.sqrt(table[i, j]) - math.sqrt(point)) <= bound

    @pytest.mark.parametrize("kind", ["ple", "ore", "sim"])
    def test_scalar_point_gives_numpy_float(self, kind):
        seq = build("simultaneous", PI)
        assert type(infidelity_grid(seq.pulses, kind, 0.0 if kind == "ore" else 0.013,
                                    0.0 if kind == "ple" else 0.007, seq.target)) is np.float64

    def test_zero_error_is_exact(self):
        seq = build("simultaneous", PI)
        assert infidelity_ld(seq.pulses, "sim", 0.0, 0.0, seq.target) <= 1e-14

    def test_symmetric_under_f_flip_for_time_symmetric(self):
        seq = build("or-timesym", PI)
        for f in (1e-3, 7e-3, 3e-2):
            a = infidelity_ld(seq.pulses, "ore", 0.0, f, seq.target)
            b = infidelity_ld(seq.pulses, "ore", 0.0, -f, seq.target)
            assert abs(float(a - b)) < 1e-12
