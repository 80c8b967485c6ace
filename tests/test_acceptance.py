"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines inline.  Two checks fail by design and are expected to stay red:

* criterion 03 asserts the printed fourth-order fidelity coefficient of the
  180-degree corpse sequence, (12 + pi^2 - 4 sqrt(3))/32.  The sequence's
  exact second-order residual is A2 = i (2 sqrt(3) - pi)/4 f^2 sigma_x
  (reproduced independently by the series engine and by extended-precision
  sweeps), which forces the coefficient |A2|^2 / 2 =
  (12 + pi^2 - 4 sqrt(3) pi)/32, about 0.00325.  The printed value is that
  expression with the factor pi dropped from the sqrt(3) term; the same
  |A2|^2/2 rule reproduces the quoted coefficients of every other sequence
  exactly.

* criterion 06 includes the printed third-order phase pair
  (phi3, delta) = (73.1, -1.6) degrees.  The third-order defect of the
  broadband 180 sequence is i pi^3 (-5 sigma_x + sqrt(15) sigma_y)/64 eps^3
  (magnitude pi^3 sqrt(40)/64, locked to the quoted eps^6 fidelity
  coefficient 5 pi^6/1024 via |E3|^2/2), and the x3 correction term carries
  -i 32 pi^3 cos^3(phi) eps^3 sigma_x (verified here to 1e-9, criterion 11).
  Cancelling the one with the other has the unique solution family
  phi3 = arccos((sqrt(40)/2048)^(1/3)) = 81.63 deg,
  delta = 180 - arctan(sqrt(15)/5) = 142.24 deg, at which the full sequence
  is verifiably fourth-order accurate (criterion 01).  No choice of phase
  shift makes phi3 = 73.1 deg cancel the defect: the magnitudes differ by a
  factor of 8 (73.1 deg would require a term of size 4 pi^3 cos^3(phi)).
"""

import math

import numpy as np

from compulse import (
    ErrorModel,
    Pulse,
    compose,
    fidelity_series,
    leading_error,
    residual,
    sequence_series,
    solve_third_order,
)
from compulse.sequences import build, corpse, or_pure_error, ple_pure_error, shift_phases
from compulse.verify import (
    crossover_scan,
    estimate_order,
    fidelity_surface,
    fit_leading_coefficient,
    inverse_quality,
)

from conftest import maxdiff

PI = math.pi
PHI_SAMPLES = [0.3, 0.7, 1.1, 2.0, 2.6]


def _report(num: int, ok: bool, detail: str = "") -> None:
    print(f"\nacceptance criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}")


def _series_order(seq, kind):
    return leading_error(residual(seq.pulses, seq.target, kind, 8)).order


ORDER_TABLE = [
    ("simple", PI, "eps", 1),
    ("sk1", PI, "eps", 2),
    ("sk2", PI, "eps", 3),
    ("sk2rot", PI, "eps", 3),
    ("bb1", PI, "eps", 3),
    ("sk3", PI, "eps", 4),
    ("corpse", PI, "f", 2),
    ("short-corpse", PI, "f", 2),
    ("or-first", PI, "f", 2),
    ("or-first-general", math.radians(60.0), "f", 2),
    ("or-first-general", math.radians(120.0), "f", 2),
    ("or-first-general", PI, "f", 2),
    ("or-timesym", PI, "f", 2),
    ("or-second-corpse", PI, "f", 3),
    ("or-second-xz", PI, "f", 3),
]


def test_criterion_01_order_table():
    """Series and numeric error orders for the whole catalog, zero tolerance."""
    rows = []
    ok = True
    for name, theta, axis, expected in ORDER_TABLE:
        seq = build(name, theta)
        kind = "ple" if axis == "eps" else "ore"
        s = _series_order(seq, kind)
        n = estimate_order(seq, axis).order
        good = s == expected and n == expected
        ok = ok and good
        rows.append(f"{name}@{math.degrees(theta):.0f}:{s}/{n} (want {expected})")
    _report(1, ok, "; ".join(rows))
    assert ok, rows


def test_criterion_02_bb1_coefficient():
    seq = build("bb1", PI)
    expected = 5 * PI**6 / 1024
    fid = fidelity_series(residual(seq.pulses, seq.target, "ple", 8))
    series_val = -fid.coeff(6, 0).real
    numeric_val = fit_leading_coefficient(seq, "eps", 6)
    ok = abs(series_val / expected - 1) < 1e-6 and abs(numeric_val / expected - 1) < 5e-3
    _report(2, ok, f"series {series_val:.8g}, numeric {numeric_val:.8g}, target {expected:.8g}")
    assert ok


def test_criterion_03_corpse_coefficient_as_printed():
    """Asserts the printed value (12 + pi^2 - 4 sqrt(3))/32; see module docstring.

    The implementation reproduces the exact coefficient
    (2 sqrt(3) - pi)^2 / 32 by both routes, which is what the companion
    assertion below pins down before the criterion value is compared.
    """
    seq = build("corpse", PI)
    printed = (12 + PI**2 - 4 * math.sqrt(3)) / 32
    exact = (2 * math.sqrt(3) - PI) ** 2 / 32
    fid = fidelity_series(residual(seq.pulses, seq.target, "ore", 8))
    series_val = -fid.coeff(0, 4).real
    numeric_val = fit_leading_coefficient(seq, "f", 4)
    # both routes agree with each other and with the closed form
    assert abs(series_val / exact - 1) < 1e-6
    assert abs(numeric_val / exact - 1) < 5e-3
    ok = abs(series_val / printed - 1) < 1e-6 and abs(numeric_val / printed - 1) < 5e-3
    _report(3, ok, f"series {series_val:.8g}, numeric {numeric_val:.8g}, printed target {printed:.8g}")
    assert ok, (
        f"both routes give {series_val:.8g} = (12+pi^2-4*sqrt(3)*pi)/32; "
        f"the printed target {printed:.8g} drops the factor pi"
    )


def test_criterion_04_or_first_coefficient():
    seq = build("or-first", PI)
    expected = (60 + PI**2) / 32
    fid = fidelity_series(residual(seq.pulses, seq.target, "ore", 8))
    series_val = -fid.coeff(0, 4).real
    numeric_val = fit_leading_coefficient(seq, "f", 4)
    ok = abs(series_val / expected - 1) < 1e-6 and abs(numeric_val / expected - 1) < 5e-3
    _report(4, ok, f"series {series_val:.8g}, numeric {numeric_val:.8g}, target {expected:.8g}")
    assert ok


def test_criterion_05_simultaneous_surface():
    seq = build("simultaneous", PI)
    sf = fidelity_surface(seq)
    targets = (15.0 / 8.0, 5 * PI**6 / 1024, 169 * PI**2 / 32)
    got = (sf.coeff_f, sf.coeff_eps, sf.coeff_cross)
    ok = all(abs(g / t - 1) < 0.01 for g, t in zip(got, targets))
    _report(
        5,
        ok,
        f"f^4 {got[0]:.6g}/{targets[0]:.6g}, eps^6 {got[1]:.6g}/{targets[1]:.6g}, "
        f"eps^2 f^2 {got[2]:.6g}/{targets[2]:.6g}",
    )
    assert ok


def test_criterion_06_solved_angles():
    """Solver outputs versus the printed values, 0.1 degree tolerance.

    The first six angles pass.  phi3 and delta cannot match the printed pair
    for any correct solver; see the module docstring for the derivation of
    the true values (81.63, 142.24) degrees.
    """
    phi3, delta = solve_third_order()
    checks = [
        ("phi1", math.degrees(build("or-first", PI).metadata["phi1"]), 104.5),
        ("phi2_ore", math.degrees(build("or-second-corpse", PI).metadata["phi2"]), 75.2),
        ("psi2", math.degrees(build("or-second-corpse", PI).metadata["psi2"]), 22.1),
        ("phi2x", math.degrees(build("or-second-xz", PI).metadata["phi2x"]), 92.8),
        ("phi2z", math.degrees(build("or-second-xz", PI).metadata["phi2z"]), 75.8),
        ("phi1_prime", math.degrees(build("or-timesym", PI).metadata["phi1_prime"]), 97.2),
        ("phi3", math.degrees(phi3), 73.1),
        ("delta", math.degrees(delta) - 360.0 * round(math.degrees(delta) / 360.0), -1.6),
    ]
    failures = [f"{n}={v:.4f} (want {t})" for n, v, t in checks if abs(v - t) >= 0.1]
    ok = not failures
    _report(6, ok, "all eight angles within 0.1 deg" if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_07_second_order_error_formula():
    ok = True
    rows = []
    for theta in (PI / 4, PI / 2, PI, 3 * PI / 2):
        seq = build("sk1", theta)
        a = residual(seq.pulses, seq.target, "ple", 2)
        _, cx, cy, cz = a.pauli_term(2, 0)
        expected = -1j * theta * math.sqrt(16 * PI**2 - theta**2) / 8
        good = (
            abs(cz - expected) < 1e-9
            and abs(cx) < 1e-9
            and abs(cy) < 1e-9
            and a.degree_pauli_norm(1) < 1e-9
        )
        ok = ok and good
        rows.append(f"theta={theta:.3f}: cz={cz.imag:.6f} want {expected.imag:.6f}")
    _report(7, ok, "; ".join(rows))
    assert ok


def test_criterion_08_inverse_quality():
    theta = 1.1
    plain = inverse_quality(
        build("simple", theta), shift_phases(build("simple", theta), PI), "ore"
    )
    pair = inverse_quality(corpse(theta), shift_phases(corpse(theta), PI), "ore")

    def pair_mag(name):
        fwd = build(name, theta)
        bwd = shift_phases(build(name, theta), PI)
        a = residual((*fwd.pulses, *bwd.pulses), Pulse(0.0, 0.0), "ore", 3)
        return a.degree_pauli_norm(3)

    m_short, m_orig = pair_mag("short-corpse"), pair_mag("corpse")
    ok = plain.order == 1 and pair.order is not None and pair.order >= 3 and m_short < m_orig
    _report(
        8,
        ok,
        f"plain pair order {plain.order}, corpse pair order {pair.order}, "
        f"third-order size short {m_short:.4g} < corpse {m_orig:.4g}",
    )
    assert ok


def test_criterion_09_time_symmetric_evenness():
    ts = build("or-timesym", PI)
    fid_ts = fidelity_series(residual(ts.pulses, ts.target, "ore", 8))
    odd = [abs(fid_ts.coeff(0, d)) for d in (1, 3, 5, 7)]
    first = build("or-first", PI)
    fid_first = fidelity_series(residual(first.pulses, first.target, "ore", 8))
    f5 = abs(fid_first.coeff(0, 5))
    ok = max(odd) < 1e-10 and f5 > 1e-10
    _report(9, ok, f"max odd coeff {max(odd):.2e}, or-first f^5 {f5:.4g}")
    assert ok


def test_criterion_10_crossover():
    thetas = np.radians(np.array([150.0, 160.0, 165.0, 167.0, 169.0, 171.0, 175.0, 180.0]))
    scan = crossover_scan(["bb1", "sk2rot"], thetas)
    cross_deg = math.degrees(scan.crossover_theta) if scan.crossover_theta else None
    below = all(
        scan.magnitudes["bb1"][i] < scan.magnitudes["sk2rot"][i]
        for i, t in enumerate(thetas)
        if math.degrees(t) < 168.0 - 2.0
    )
    above = all(
        scan.magnitudes["bb1"][i] > scan.magnitudes["sk2rot"][i]
        for i, t in enumerate(thetas)
        if math.degrees(t) > 168.0 + 2.0
    )
    ratio = scan.magnitudes["bb1"][-1] / scan.magnitudes["sk2rot"][-1]
    ok = (
        cross_deg is not None
        and abs(cross_deg - 168.0) <= 2.0
        and below
        and above
        and 1.05 <= ratio <= 1.15
    )
    _report(10, ok, f"crossover {cross_deg:.2f} deg, ratio at 180 deg {ratio:.4f}")
    assert ok


def test_criterion_11_pure_error_coefficients():
    ok = True
    bad = []

    def check(label, got, want):
        nonlocal ok
        if abs(got - want) >= 1e-9:
            ok = False
            bad.append(f"{label}: {got:.6g} vs {want:.6g}")

    for phi in PHI_SAMPLES:
        a = residual(ple_pure_error("x1", phi).pulses, Pulse(0, 0), "ple", 1)
        check(f"ple-x1({phi})", a.pauli_term(1, 0)[1], -2j * PI * math.cos(phi))
        a = residual(ple_pure_error("z2", phi).pulses, Pulse(0, 0), "ple", 2)
        check(f"ple-z2({phi})", a.pauli_term(2, 0)[3], -8j * PI**2 * math.cos(phi) ** 2)
        a = residual(ple_pure_error("six_pulse_z2", phi).pulses, Pulse(0, 0), "ple", 2)
        check(f"ple-six({phi})", a.pauli_term(2, 0)[3], -4j * PI**2 * math.cos(phi))
        a = residual(ple_pure_error("x3", phi).pulses, Pulse(0, 0), "ple", 3)
        check(f"ple-x3({phi})", a.pauli_term(3, 0)[1], -32j * PI**3 * math.cos(phi) ** 3)
        a = residual(or_pure_error("b1", phi).pulses, Pulse(0, 0), "ore", 1)
        check(f"or-b1({phi})", a.pauli_term(0, 1)[3], -2j * math.sin(phi))
        a = residual(or_pure_error("y1prime", phi).pulses, Pulse(0, 0), "ore", 1)
        check(f"or-y1p({phi})", a.pauli_term(0, 1)[2], 4j * math.cos(phi))
        a = residual(or_pure_error("z2", phi).pulses, Pulse(0, 0), "ore", 2)
        check(f"or-z2({phi})", a.pauli_term(0, 2)[3], -32j * math.cos(phi) ** 2)
        a = residual(or_pure_error("x2", phi).pulses, Pulse(0, 0), "ore", 2)
        check(f"or-x2({phi})", a.pauli_term(0, 2)[1], -16j * math.cos(phi))
    for alpha, beta in zip(PHI_SAMPLES, reversed(PHI_SAMPLES)):
        a = residual(ple_pure_error("z2general", alpha, beta).pulses, Pulse(0, 0), "ple", 2)
        check(
            f"ple-z2gen({alpha},{beta})",
            a.pauli_term(2, 0)[3],
            -8j * PI**2 * math.cos(alpha) * math.cos(beta),
        )
    _report(11, ok, "all closed forms to 1e-9" if ok else "; ".join(bad))
    assert ok, bad


MODEL_VALUE = {
    "ple": ErrorModel.pulse_length(1e-3),
    "ore": ErrorModel.off_resonance(1e-3),
    "sim": ErrorModel.simultaneous(1e-3, 1e-3),
}


def test_criterion_12_oracle_equivalence():
    ok = True
    worst = 0.0
    for name, theta, _, _ in ORDER_TABLE:
        seq = build(name, theta)
        ms = sequence_series(seq.pulses, seq.model_kind, 8)
        exact = compose(seq.pulses, MODEL_VALUE[seq.model_kind])
        gap = maxdiff(ms.evaluate(1e-3, 1e-3), exact)
        worst = max(worst, gap)
        ok = ok and gap <= 1e-11
    seq = build("simultaneous", PI)
    ms = sequence_series(seq.pulses, "sim", 8)
    exact = compose(seq.pulses, MODEL_VALUE["sim"])
    gap = maxdiff(ms.evaluate(1e-3, 1e-3), exact)
    worst = max(worst, gap)
    ok = ok and gap <= 1e-11
    _report(12, ok, f"worst entrywise gap {worst:.3e} (bound 1e-11)")
    assert ok
