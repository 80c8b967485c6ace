"""Numeric cross-checks: sweeps, slope fits, crossover scan, surfaces."""

import ast
import math

import numpy as np
import pytest

import compulse.sequences
import compulse.series
import compulse.verify
from compulse import Pulse, residual
from compulse.sequences import CATALOG, build, corpse, ple_pure_error, shift_phases, solve_third_order
from compulse.su2 import CONTOUR_EPS, pulse_matrix, residual_grid, rotation, taylor_coefficients
from compulse.verify import (
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

    def test_readme_range_crossover_is_exact(self):
        scan = crossover_scan(["bb1", "sk2rot"], np.radians(np.linspace(10.0, 180.0, 86)))
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


def _one_angle_magnitude(name, theta):
    """Degree-3 sigma norm of one sequence composed from its own pulses."""
    seq = build(name, theta)
    w = residual_grid(seq.pulses, "ple", CONTOUR_EPS, 0.0, rotation(seq.target.angle, seq.target.phase))
    w01, w10 = w[:, 0, 1], w[:, 1, 0]
    sigma = np.stack([w01 + w10, 1j * (w01 - w10), w[:, 0, 0] - w[:, 1, 1]]) / 2.0
    return np.sqrt((np.abs(taylor_coefficients(sigma)) ** 2).sum(axis=0))[3]


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

    def test_grid_matches_pointwise(self):
        seq = build("simultaneous", PI)
        eps = np.array([-2e-2, 1e-4, 3e-3])[:, None]
        f = np.array([0.0, 1e-3, 5e-2, -7e-3])[None, :]
        table = infidelity_grid(seq.pulses, "sim", eps, f, seq.target)
        assert table.shape == (3, 4)
        for i, e in enumerate(eps[:, 0]):
            for j, x in enumerate(f[0]):
                assert table[i, j] == infidelity_ld(seq.pulses, "sim", e, x, seq.target)

    def test_zero_error_is_exact(self):
        seq = build("simultaneous", PI)
        assert infidelity_ld(seq.pulses, "sim", 0.0, 0.0, seq.target) <= 1e-14

    def test_symmetric_under_f_flip_for_time_symmetric(self):
        seq = build("or-timesym", PI)
        for f in (1e-3, 7e-3, 3e-2):
            a = infidelity_ld(seq.pulses, "ore", 0.0, f, seq.target)
            b = infidelity_ld(seq.pulses, "ore", 0.0, -f, seq.target)
            assert abs(float(a - b)) < 1e-12
