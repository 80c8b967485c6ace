"""Correctness checks of the program's outputs against ``reference``.

They run after the timed phase.  Each ``check_*`` function takes the
records of one workload's operations that did not fail (kind, inputs,
output, round) and adds a message to ``Checker.failures`` for every check
that does not pass.  Sample points are drawn from the run's seed, three per
operation in round 0 and one in later rounds.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import reference as ref

SWEEP_RTOL = 1e-3  # sweep values against the mpmath composition
SERIES_RTOL = 1e-6  # series coefficients against closed forms
REF_COEFF_RTOL = 1e-5  # series coefficients against the mpmath extrapolation
FIT_RTOL = 1e-2  # fitted coefficients against closed forms
NORM_RTOL = 1e-6  # degree-3 norms against the mpmath odd part
CROSSOVER_ATOL = 1e-7  # radians, program bisection against the reference


def _rel(a, b) -> float:
    return abs(a - b) / abs(b)


def _pulses(seq_pulses):
    return [(p.angle, p.phase) for p in seq_pulses]


class Checker:
    """Shared reference values and the seeded choice of sample points."""

    def __init__(self, seed: int, fit_window):
        self.seed = seed
        self.fit_window = fit_window
        self.failures: list[str] = []
        self._coeff_cache: dict = {}
        self._crossover = None

    def fail(self, msg: str) -> None:
        self.failures.append(msg)

    def rng(self, r: int, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, r, i, 7])

    def samples(self, r: int, i: int, candidates) -> list:
        """Sample points of operation ``i`` of round ``r``."""
        k = 3 if r == 0 else 1
        candidates = list(candidates)
        if not candidates:
            return []
        picks = self.rng(r, i).choice(len(candidates), size=min(k, len(candidates)), replace=False)
        return [candidates[j] for j in sorted(picks)]

    def in_window(self, value: float) -> bool:
        lo, hi = self.fit_window
        return lo <= value <= hi

    def check_sweep_points(self, label, pulses, target, kind, points, values, r, i) -> None:
        """Program values at sampled points against the mpmath infidelity.

        Points are drawn among those whose program value lies in the fit
        window, and compared where the reference lies there too.
        """
        cand = [j for j, v in enumerate(values) if self.in_window(v)]
        compared = 0
        for j in self.samples(r, i, cand):
            e, f = points[j]
            want = ref.infidelity(pulses, target, kind, e, f)
            if not self.in_window(want):
                continue
            compared += 1
            if _rel(values[j], want) > SWEEP_RTOL:
                self.fail(f"{label} round {r}: infidelity at (eps={e:.6g}, f={f:.6g}) is {values[j]:.6g}, "
                          f"reference {want:.6g}")
        if not compared:
            self.fail(f"{label} round {r}: no sample point inside the fit window")

    def coefficient(self, name, theta, axis, order, pulses, target) -> float:
        key = (name, theta, axis)
        if key not in self._coeff_cache:
            self._coeff_cache[key] = ref.leading_coefficient(pulses, target, axis, order)
        return self._coeff_cache[key]

    def crossover(self, build):
        """Reference crossover of bb1 against sk2rot, radians."""
        if self._crossover is None:
            def variant(name):
                return lambda th: (_pulses(build(name, th).pulses), (th, 0.0))

            self._crossover = ref.crossover(
                variant("bb1"), variant("sk2rot"), math.radians(160.0), math.radians(176.0)
            )
        return self._crossover


# ---------------------------------------------------------------------------
# certify-catalog

def check_certify(ck: Checker, records) -> None:
    for rec in records:
        out = rec["output"]
        name, theta = out["name"], out["theta"]
        label = f"certify {name}@{math.degrees(theta):.4f}"
        want_orders = ref.ORDERS[name]
        if set(out["axes"]) != set(want_orders):
            ck.fail(f"{label}: axes {sorted(out['axes'])}, want {sorted(want_orders)}")
            continue
        at_180 = abs(theta - math.pi) < 1e-12
        pulses = _pulses(out["pulses"])
        target = (out["target"].angle, out["target"].phase)
        for axis, want in want_orders.items():
            e = out["axes"][axis]
            if e["series_order"] != want or e["numeric_order"] != want:
                ck.fail(f"{label} {axis}: orders series {e['series_order']} numeric "
                        f"{e['numeric_order']}, paper {want}")
                continue
            closed = ref.CLOSED_FORMS.get((name, axis)) if at_180 else None
            c = e["series_coefficient"]
            if closed is not None:
                if _rel(c, closed) > SERIES_RTOL:
                    ck.fail(f"{label} {axis}: series coefficient {c:.10g}, closed form {closed:.10g}")
            else:
                c_ref = ck.coefficient(name, theta, axis, want, pulses, target)
                if _rel(c, c_ref) > REF_COEFF_RTOL:
                    ck.fail(f"{label} {axis}: series coefficient {c:.10g}, reference {c_ref:.10g}")
            if "fit_coefficient" in e and _rel(e["fit_coefficient"], closed) > FIT_RTOL:
                ck.fail(f"{label} {axis}: fitted coefficient {e['fit_coefficient']:.6g}, "
                        f"closed form {closed:.6g}")
        if name == "simultaneous":
            if _rel(out["cross_coefficient"], ref.SIMULTANEOUS_CROSS) > SERIES_RTOL:
                ck.fail(f"{label}: eps^2 f^2 coefficient {out['cross_coefficient']:.10g}, "
                        f"closed form {ref.SIMULTANEOUS_CROSS:.10g}")
        else:
            (axis,) = want_orders
            e = out["axes"][axis]
            if out["infidelity_degree"] != 2 * want_orders[axis] or (
                "series_coefficient" in e and _rel(out["infidelity_coefficient"], e["series_coefficient"]) > 1e-9
            ):
                ck.fail(f"{label}: leading_error reports {out['infidelity_coefficient']} "
                        f"x^{out['infidelity_degree']}, fidelity series {e.get('series_coefficient')}")
        if name == "sk3":
            phi3, delta = out["metadata"]["phi3"], out["metadata"]["delta"]
            d_delta = (delta - ref.SK3_DELTA + math.pi) % (2 * math.pi) - math.pi
            if abs(phi3 - ref.SK3_PHI3) > 1e-9 or abs(d_delta) > 1e-9:
                ck.fail(f"sk3 phases ({math.degrees(phi3):.6f}, {math.degrees(delta):.6f}) deg, "
                        f"closed form ({math.degrees(ref.SK3_PHI3):.6f}, {math.degrees(ref.SK3_DELTA):.6f})")


# ---------------------------------------------------------------------------
# sweep-grid

def check_sweep(ck: Checker, records, seqs) -> None:
    for i, rec in enumerate(records):
        kind, inp, out, r = rec["kind"], rec["inputs"], rec["output"], rec["round"]
        seq = seqs[inp["name"]]
        pulses, target = _pulses(seq.pulses), (seq.target_theta, seq.target_phi)
        if kind == "fidelity-surface":
            got = (out.coeff_eps, out.coeff_f, out.coeff_cross)
            want = (ref.CLOSED_FORMS[("simultaneous", "eps")], ref.CLOSED_FORMS[("simultaneous", "f")],
                    ref.SIMULTANEOUS_CROSS)
            for label, g, w in zip(("eps^6", "f^4", "eps^2 f^2"), got, want):
                if _rel(g, w) > FIT_RTOL:
                    ck.fail(f"surface round {r}: {label} coefficient {g:.6g}, closed form {w:.6g}")
            table = out.infidelity
            points = [(e, f) for e in inp["eps"] for f in inp["f"]]
            ck.check_sweep_points("surface table", pulses, target, "sim", points, table.ravel(), r, i)
        elif "grid" in inp:
            axis = inp["axis"]
            points = [(x, 0.0) if axis == "eps" else (0.0, x) for x in inp["grid"]]
            if out.shape != inp["grid"].shape:
                ck.fail(f"{kind} round {r}: {out.shape} values for {inp['grid'].shape} points")
                continue
            ck.check_sweep_points(kind, pulses, target, ref.AXIS_KIND[axis], points, out, r, i)
        else:
            points = [(e, f) for e in inp["eps"] for f in inp["f"]]
            ck.check_sweep_points(kind, pulses, target, "sim", points, out.ravel(), r, i)


# ---------------------------------------------------------------------------
# angle-scan

def check_norms(ck: Checker, label, names, thetas, mags, r, i, build) -> None:
    for j in ck.samples(r, i, range(len(thetas))):
        for name in names:
            seq = build(name, thetas[j])
            want = ref.degree3_norm(_pulses(seq.pulses), (seq.target_theta, seq.target_phi))
            if _rel(mags[name][j], want) > NORM_RTOL:
                ck.fail(f"{label} round {r}: {name} degree-3 norm at {math.degrees(thetas[j]):.4f} deg "
                        f"is {mags[name][j]:.10g}, reference {want:.10g}")


def check_scan(ck: Checker, records, build) -> None:
    for i, rec in enumerate(records):
        inp, out, r = rec["inputs"], rec["output"], rec["round"]
        names = inp["names"]
        label = f"scan {names[0]}/{names[1]}"
        if not np.array_equal(out.thetas, inp["thetas"]):
            ck.fail(f"{label} round {r}: scan angles differ from the input grid")
        check_norms(ck, label, names, inp["thetas"], out.magnitudes, r, i, build)
        if names == ("bb1", "sk2rot"):
            want = ck.crossover(build)
            got = out.crossover_theta
            if out.flagged or got is None or abs(got - want) > CROSSOVER_ATOL:
                ck.fail(f"{label} round {r}: crossover {got}, reference {want}")
            elif abs(math.degrees(got) - ref.PUBLISHED_CROSSOVER_DEG) > ref.CROSSOVER_NEAR_DEG:
                ck.fail(f"{label} round {r}: crossover {math.degrees(got):.4f} deg, published near 168")
            if _rel(out.magnitudes["bb1"][-1], ref.BB1_DEGREE3_NORM_180) > 1e-9:
                ck.fail(f"{label} round {r}: bb1 degree-3 norm at 180 deg {out.magnitudes['bb1'][-1]:.12g}, "
                        f"closed form {ref.BB1_DEGREE3_NORM_180:.12g}")
        elif not out.flagged or out.crossover_theta is not None:
            ck.fail(f"{label} round {r}: crossover {out.crossover_theta} where the norms never cross")


# ---------------------------------------------------------------------------
# cli-session

def check_cli(ck: Checker, records, workdir) -> None:
    from compulse.cli import parse_document, serialize_document
    from compulse.sequences import build

    for i, rec in enumerate(records):
        kind, inp, out, r = rec["kind"], rec["inputs"], rec["output"], rec["round"]
        if kind == "verify-malformed":
            if "Traceback" in out["stderr"] or "error:" not in out["stderr"]:
                ck.fail(f"malformed {inp['doc']} round {r}: exit 2 without a one-line error")
            continue
        if kind == "synth":
            text = (workdir / inp["doc"]).read_text(encoding="utf-8")
            if json.dumps(json.loads(text), indent=2) + "\n" != text:
                ck.fail(f"synth round {r}: document is not canonical JSON")
            if serialize_document(parse_document(text)) != text:
                ck.fail(f"synth round {r}: parse/serialize round trip is not byte-identical")
            doc = json.loads(text)
            got = [(p["angle_deg"], p["phase_deg"]) for p in doc["pulses"]]
            want = [(math.degrees(a), math.degrees(p)) for a, p in ref.bb1_pulses(math.radians(inp["theta"]))]
            if len(got) != len(want) or any(
                abs(g - w) > 1e-9 for gp, wp in zip(got, want) for g, w in zip(gp, wp)
            ) or doc["target_theta_deg"] != inp["theta"]:
                ck.fail(f"synth round {r}: bb1 pulses {got}, want {want}")
        elif kind == "verify-document":
            lines = out["stdout"]
            if "series order:    3" not in lines or "numeric order:   3" not in lines or "-> OK" not in lines:
                ck.fail(f"verify document round {r}: unexpected report {lines!r}")
        elif kind in ("verify-sk3-json", "verify-corpse-json"):
            name, order = ("sk3", 4) if kind == "verify-sk3-json" else ("corpse", 2)
            theta = math.radians(inp.get("theta", 180.0))
            payload = json.loads(out["stdout"])
            want = {"sequence": name, "series_order": order, "numeric_order": order,
                    "expected_order": order, "infidelity_degree": 2 * order, "match": True}
            bad = {k: payload.get(k) for k, v in want.items() if payload.get(k) != v}
            if bad or abs(payload["target_theta_deg"] - math.degrees(theta)) > 1e-9:
                ck.fail(f"{kind} round {r}: fields {bad}")
                continue
            seq = build(name, theta)
            c_ref = ck.coefficient(name, theta, "eps" if name == "sk3" else "f", order,
                                   _pulses(seq.pulses), (seq.target_theta, seq.target_phi))
            c = payload["leading_infidelity_coefficient"]
            if _rel(c, c_ref) > REF_COEFF_RTOL:
                ck.fail(f"{kind} round {r}: coefficient {c:.10g}, reference {c_ref:.10g}")
        elif kind == "sweep":
            rows = list(csv.reader(io.StringIO((workdir / inp["csv"]).read_text(encoding="utf-8"))))
            xs = np.geomspace(inp["lo"], inp["hi"], inp["n"])
            if rows[0] != ["error_value", "infidelity"] or len(rows) != inp["n"] + 1:
                ck.fail(f"sweep round {r}: header {rows[0]} and {len(rows) - 1} rows")
                continue
            got_x = np.array([float(x) for x, _ in rows[1:]])
            if np.max(np.abs(got_x / xs - 1)) > 1e-11:
                ck.fail(f"sweep round {r}: grid differs from geomspace({inp['lo']}, {inp['hi']}, {inp['n']})")
            values = [float(v) for _, v in rows[1:]]
            seq = build("bb1", math.pi)
            ck.check_sweep_points("cli sweep", _pulses(seq.pulses), (math.pi, 0.0), "ple",
                                  [(x, 0.0) for x in got_x], values, r, i)
        elif kind == "compare":
            lines = out["stdout"].strip().splitlines()
            rows = list(csv.reader(lines[:-1]))
            prefix = "# crossover of bb1 vs sk2rot at "
            if rows[0] != ["theta_deg", "bb1", "sk2rot"] or len(rows) != inp["n"] + 1 or not lines[-1].startswith(prefix):
                ck.fail(f"compare round {r}: unexpected output {lines[:2]} ... {lines[-1]!r}")
                continue
            got = float(lines[-1][len(prefix):].split()[0])
            want = math.degrees(ck.crossover(build))
            if abs(got - want) > 6e-4 or abs(got - ref.PUBLISHED_CROSSOVER_DEG) > ref.CROSSOVER_NEAR_DEG:
                ck.fail(f"compare round {r}: crossover {got} deg, reference {want:.6f}")
            thetas = np.radians(np.linspace(inp["lo"], inp["hi"], inp["n"]))
            if any(float(t) != float(f"{math.degrees(th):.6g}") for (t, _, _), th in zip(rows[1:], thetas)):
                ck.fail(f"compare round {r}: angles differ from linspace({inp['lo']}, {inp['hi']}, {inp['n']})")
            mags = {"bb1": [float(b) for _, b, _ in rows[1:]], "sk2rot": [float(s) for _, _, s in rows[1:]]}
            check_norms(ck, "cli compare", ("bb1", "sk2rot"), thetas, mags, r, i, build)


# ---------------------------------------------------------------------------
# infidelity floor

#: (sequence, axis, error order) of the floor probe
FLOOR_PROBE = (("sk3", "eps", 4), ("or-second-xz", "f", 3), ("simultaneous", "eps", 3), ("simultaneous", "f", 2))
FLOOR_RANGE = (1e-30, 1e-12)
FLOOR_POINTS_PER_DECADE = 3


def infidelity_floor(build, infidelity_ld) -> float:
    """Smallest reference infidelity at or above which every probed value
    of ``infidelity_ld`` agrees with the reference within 1%.

    The probe is fixed, not seeded: for each probed sequence and axis, the
    error values whose leading-order infidelity spans ``FLOOR_RANGE`` at
    three points per decade.  The floor is then a property of the program's
    arithmetic and does not move with where the seeded grids fall.
    """
    lo, hi = FLOOR_RANGE
    n = int(round(math.log10(hi / lo) * FLOOR_POINTS_PER_DECADE)) + 1
    pairs = []
    for name, axis, order in FLOOR_PROBE:
        seq = build(name, math.pi)
        pulses, target = _pulses(seq.pulses), (seq.target_theta, seq.target_phi)
        c = ref.leading_coefficient(pulses, target, axis, order)
        kind = ref.AXIS_KIND[axis]
        for level in np.geomspace(lo, hi, n):
            x = (level / c) ** (0.5 / order)
            e, f = (x, 0.0) if axis == "eps" else (0.0, x)
            want = ref.infidelity(pulses, target, kind, e, f)
            got = float(infidelity_ld(seq.pulses, kind, e, f, seq.target))
            pairs.append((want, got))
    pairs.sort(reverse=True)
    floor = pairs[0][0]
    for want, got in pairs:
        if abs(got - want) > 0.01 * want:
            break
        floor = want
    return floor
