"""Numeric cross-checks: sweeps, slope fits, crossover scan, surfaces."""

import math

import numpy as np
import pytest

from compulse import Pulse, residual
from compulse.sequences import build, corpse, ple_pure_error, shift_phases
from compulse.verify import (
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
        sweep = estimate_order(pulses, "eps", target=Pulse(0.0, 0.0))
        assert sweep.beyond_resolution
        assert sweep.order is None

    def test_custom_grid(self):
        grid = geometric_grid(1e-3, 3e-2, 10)
        sweep = estimate_order(build("sk1", PI), "eps", grid=grid)
        assert sweep.order == 2


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
            fit_leading_coefficient(pulses, "eps", 2, target=Pulse(0.0, 0.0))

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
        with pytest.raises(ValueError):
            crossover_scan(["simple", "bb1"], np.radians([90.0, 180.0]))


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

    @pytest.mark.parametrize("theta", [0.9, PI / 2, 2.0])
    def test_short_corpse_inverse_has_smaller_third_order(self, theta):
        def pair_mag(preset):
            fwd = corpse(theta, preset)
            bwd = shift_phases(corpse(theta, preset), PI)
            a = residual((*fwd.pulses, *bwd.pulses), Pulse(0.0, 0.0), "ore", 3)
            return a.degree_pauli_norm(3)

        assert pair_mag("short") < pair_mag("corpse")


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
