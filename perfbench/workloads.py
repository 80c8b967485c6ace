"""The four workloads: seeded inputs and the operations that use them.

A workload's ``setup`` does the one-time work a user pays before the first
operation; ``round(r)`` returns the operations of round ``r`` as
``(kind, inputs, call)`` triples.  Round 0 is the warm-up.  Every round holds
the same kinds of operations in the same order, with fresh inputs drawn from
``(seed, r)``, so the share of each kind, and of failed operations, is the
same in every run.  Each ``call`` returns the program's output, or, on
``cli-session``, the finished command.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from compulse import sequences, series, verify

PI = math.pi
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: angle-general catalog entries and the range their seeded target angles
#: are drawn from, degrees.  Below about 115 degrees estimate_order reads
#: corpse as third order (its degree-2 term is small next to the degree-3
#: one inside the fit window), so corpse is drawn from 125-180 degrees.
GENERAL_RANGES = {
    "bb1": (10.0, 180.0),
    "sk1": (10.0, 180.0),
    "sk2": (10.0, 180.0),
    "sk2rot": (10.0, 180.0),
    "corpse": (125.0, 180.0),
    "short-corpse": (10.0, 180.0),
    "or-first-general": (10.0, 180.0),
}

#: entries whose leading coefficient at 180 degrees has a closed form:
#: axis -> infidelity degree of the fit
FIT_AXES = {
    "bb1": {"eps": 6},
    "corpse": {"f": 4},
    "or-first": {"f": 4},
    "simultaneous": {"eps": 6, "f": 4},
}

_AXIS_KIND = {"eps": "ple", "f": "ore"}


def design_axes(seq) -> tuple[str, ...]:
    if seq.model_kind == "sim":
        return ("eps", "f")
    return ("f",) if seq.model_kind == "ore" else ("eps",)


def _rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, r])


def _loguniform(rng, lo_exp: float, hi_exp: float) -> float:
    return float(10.0 ** rng.uniform(lo_exp, hi_exp))


def _axis_point(axis: str, x):
    """(eps, f) on one axis; integers give an exponent pair."""
    return (x, 0 * x) if axis == "eps" else (0 * x, x)


def certify(seq, fit_degrees: dict) -> dict:
    """One certificate: degree-8 residual, leading error, fidelity-series
    coefficient, estimate_order per design axis, and coefficient fits."""
    kind = seq.model_kind
    res = series.residual(seq.pulses, seq.target, kind, 8)
    rep = series.leading_error(res)
    fid = series.fidelity_series(res)
    out = {
        "name": seq.name,
        "theta": seq.target_theta,
        "infidelity_degree": rep.infidelity_degree,
        "infidelity_coefficient": rep.infidelity_coefficient,
        "pulses": seq.pulses,
        "target": seq.target,
        "metadata": seq.metadata,
        "axes": {},
    }
    for axis in design_axes(seq):
        if kind == "sim":
            norms = [res.pauli_term(*_axis_point(axis, d))[1:] for d in range(1, 9)]
            s_order = next(
                (d for d, t in enumerate(norms, 1) if math.sqrt(sum(abs(c) ** 2 for c in t)) > 1e-10),
                None,
            )
        else:
            s_order = rep.order
        sweep = verify.estimate_order(seq, axis)
        entry = {"series_order": s_order, "numeric_order": sweep.order}
        if s_order is not None:
            entry["series_coefficient"] = -fid.coeff(*_axis_point(axis, 2 * s_order)).real
        if axis in fit_degrees:
            entry["fit_coefficient"] = verify.fit_leading_coefficient(seq, axis, fit_degrees[axis])
        out["axes"][axis] = entry
    if kind == "sim":
        out["cross_coefficient"] = -fid.coeff(2, 2).real
    return out


class CertifyCatalog:
    """Certificates of every catalog entry at 180 degrees, and of the
    angle-general entries at one seeded angle each per round."""

    name = "certify-catalog"
    #: the middle of the costliest kind's share (1 in 21), away from the
    #: edge between the two costliest kinds
    tail_percentile = 97.5

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.fixed = [sequences.build(name, PI) for name in sequences.CATALOG]

    def round(self, r: int):
        rng = _rng(self.seed, r)
        ops = [
            ("certify@180", {"name": s.name}, (lambda s=s: certify(s, FIT_AXES.get(s.name, {}))))
            for s in self.fixed
        ]
        for name, (lo, hi) in GENERAL_RANGES.items():
            theta = math.radians(rng.uniform(lo, hi))
            ops.append(
                (
                    "certify@seeded",
                    {"name": name, "theta": theta},
                    (lambda name=name, theta=theta: certify(sequences.build(name, theta), {})),
                )
            )
        return ops


def sweep_1d(seq, axis: str, grid: np.ndarray) -> np.ndarray:
    kind = _AXIS_KIND[axis]
    return np.array(
        [float(verify.infidelity_ld(seq.pulses, kind, *_axis_point(axis, x), seq.target)) for x in grid]
    )


def sweep_2d(seq, eps_grid: np.ndarray, f_grid: np.ndarray) -> np.ndarray:
    return np.array(
        [[float(verify.infidelity_ld(seq.pulses, "sim", e, f, seq.target)) for f in f_grid] for e in eps_grid]
    )


class SweepGrid:
    """Dense infidelity sweeps of the longest sequences, 2-D simultaneous
    grids and the fitted simultaneous surface."""

    name = "sweep-grid"
    tail_percentile = 90

    #: (label, sequence, axis, points, log10 of the grid ends' ranges)
    SWEEPS = (
        ("sk3-eps", "sk3", "eps", 100, (-4.0, -3.7), (-1.15, -1.0)),
        ("or-second-xz-f", "or-second-xz", "f", 64, (-4.0, -3.7), (-1.15, -1.0)),
        ("simultaneous-eps", "simultaneous", "eps", 300, (-4.0, -3.7), (-1.15, -1.0)),
        ("simultaneous-f", "simultaneous", "f", 300, (-4.0, -3.7), (-1.15, -1.0)),
    )
    #: (label, points per axis, log10 ranges of the grid ends)
    GRIDS = (
        ("simultaneous-2d-wide", 17, (-3.1, -2.9), (-1.1, -0.9)),
        ("simultaneous-2d-fine", 17, (-2.7, -2.5), (-1.6, -1.4)),
    )

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.seqs = {name: sequences.build(name, PI) for name in ("sk3", "or-second-xz", "simultaneous")}

    def round(self, r: int):
        rng = _rng(self.seed, r)
        ops = []
        for label, name, axis, n, lo, hi in self.SWEEPS:
            grid = np.geomspace(_loguniform(rng, *lo), _loguniform(rng, *hi), n)
            seq = self.seqs[name]
            ops.append((label, {"name": name, "axis": axis, "grid": grid},
                        (lambda seq=seq, axis=axis, grid=grid: sweep_1d(seq, axis, grid))))
        sim = self.seqs["simultaneous"]
        for label, n, lo, hi in self.GRIDS:
            e = np.geomspace(_loguniform(rng, *lo), _loguniform(rng, *hi), n)
            f = np.geomspace(_loguniform(rng, *lo), _loguniform(rng, *hi), n)
            ops.append((label, {"name": "simultaneous", "eps": e, "f": f},
                        (lambda e=e, f=f: sweep_2d(sim, e, f))))
        e = np.geomspace(_loguniform(rng, -2.6, -2.4), _loguniform(rng, -1.6, -1.4), 7)
        f = np.geomspace(_loguniform(rng, -2.6, -2.4), _loguniform(rng, -1.6, -1.4), 7)
        ops.append(("fidelity-surface", {"name": "simultaneous", "eps": e, "f": f},
                    (lambda e=e, f=f: verify.fidelity_surface(sim, e, f))))
        return ops


class AngleScan:
    """crossover_scan of bb1 against sk2rot, and of sk2 against sk2rot on
    two grids, over dense seeded angle grids within 10-180 degrees."""

    name = "angle-scan"
    #: the bb1/sk2rot scans, a third of the operations and the costliest,
    #: are the top of the latency order; p80 lies inside their share, away
    #: from its lower edge, and keeps ten samples beyond it down to 50
    #: operations per run
    tail_percentile = 80

    #: (variants, points, range of the low end, width), degrees.  The
    #: bb1/sk2rot grid (about 1.5 degrees apart) runs to 180 degrees, where
    #: bb1's degree-3 norm has a closed form, and always brackets the
    #: crossover at 168.7 degrees.  The sk2/sk2rot grids (2.7 degrees apart)
    #: lie anywhere in 10-180 degrees; those two norms never cross.
    SCANS = (
        (("bb1", "sk2rot"), 24, (140.0, 150.0), None),
        (("sk2", "sk2rot"), 16, (10.0, 140.0), 40.0),
        (("sk2", "sk2rot"), 16, (10.0, 140.0), 40.0),
    )

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Nothing: crossover_scan builds its sequences itself."""

    def round(self, r: int):
        rng = _rng(self.seed, r)
        ops = []
        for names, n, lo_range, width in self.SCANS:
            lo = rng.uniform(*lo_range)
            thetas = np.radians(np.linspace(lo, 180.0 if width is None else lo + width, n))
            ops.append((f"scan-{names[0]}-{names[1]}", {"names": names, "thetas": thetas},
                        (lambda names=names, thetas=thetas: verify.crossover_scan(names, thetas))))
        return ops


def malformed_documents() -> dict[str, str]:
    """Three malformed bb1 documents the CLI must reject with exit code 2.

    They do not depend on the seed: a list as ``metadata``, a non-numeric
    ``angle_deg`` and a NaN angle.
    """
    phi = math.degrees(math.acos(-0.25))
    pulses = [(180.0, 0.0), (180.0, phi), (360.0, 3 * phi), (180.0, phi)]

    def document(metadata=None, angle=None):
        doc = {
            "schema_version": 1,
            "name": "bb1",
            "target_theta_deg": 180.0,
            "error_model": "ple",
            "convention": "chronological",
            "pulses": [{"angle_deg": a, "phase_deg": p} for a, p in pulses],
            "metadata": {} if metadata is None else metadata,
        }
        if angle is not None:
            doc["pulses"][1]["angle_deg"] = angle
        return json.dumps(doc, indent=2)

    return {
        "metadata-list.json": document(metadata=[1, 2]),
        "angle-text.json": document(angle="one hundred eighty"),
        "angle-nan.json": document(angle=float("nan")),
    }


class CliSession:
    """README commands as fresh subprocesses, one after another."""

    name = "cli-session"
    #: the middle of verify-sk3-json's share (1 in 9), the second costliest
    #: kind: p75 sits on the edge where it overlaps the verify commands below
    #: it, and p87.5 on the edge of compare, three times costlier.  It keeps
    #: ten samples beyond it down to 60 commands per run
    tail_percentile = 83

    def __init__(self, seed: int, workdir: Path | None = None):
        self.seed = seed
        self.workdir = workdir  # documents, CSV files and span files
        self.traced = False
        self._trace_files = 0

    def setup(self) -> None:
        import compulse.cli  # noqa: F401  (the one-time work a CLI user pays)

        if self.workdir is not None:
            self.workdir.mkdir(parents=True, exist_ok=True)
            for name, text in malformed_documents().items():
                (self.workdir / name).write_text(text, encoding="utf-8")

    def command(self, args: list[str]):
        """Run one command to its end; returns its exit code, output and span file."""
        trace_file = None
        if self.traced:
            self._trace_files += 1
            trace_file = self.workdir / f"cli-spans-{self._trace_files}.json"
            argv = [sys.executable, str(HERE / "cli_child.py"), str(trace_file), *args]
        else:
            argv = [sys.executable, "-m", "compulse.cli", *args]
        proc = subprocess.run(argv, cwd=self.workdir, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                              capture_output=True, text=True)
        return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
                "trace_file": trace_file}

    def round(self, r: int):
        rng = _rng(self.seed, r)
        theta = round(float(rng.uniform(20.0, 180.0)), 3)
        theta_corpse = round(float(rng.uniform(*GENERAL_RANGES["corpse"])), 3)
        lo = float(f"{_loguniform(rng, -4.0, -3.7):.4g}")
        hi = float(f"{_loguniform(rng, -1.15, -1.0):.4g}")
        c_lo, c_hi = round(float(rng.uniform(158.0, 162.0)), 2), round(float(rng.uniform(174.0, 178.0)), 2)
        doc = f"bb1-{r}.json"
        plan = [
            ("synth", {"theta": theta, "doc": doc},
             ["synth", "bb1", "--theta", repr(theta), "--out", doc]),
            ("verify-document", {"doc": doc}, ["verify", doc, "--expect-order", "3"]),
            ("verify-sk3-json", {}, ["verify", "sk3", "--order", "4", "--json"]),
            ("verify-corpse-json", {"theta": theta_corpse},
             ["verify", "corpse", "--theta", repr(theta_corpse), "--order", "2", "--json"]),
            ("sweep", {"lo": lo, "hi": hi, "n": 25, "csv": f"sweep-{r}.csv"},
             ["sweep", "bb1", "--model", "ple", "--grid", f"{lo!r}:{hi!r}:25", "--out", f"sweep-{r}.csv"]),
            ("compare", {"lo": c_lo, "hi": c_hi, "n": 9},
             ["compare", "--variants", "bb1", "sk2rot", "--theta-range", f"{c_lo!r}:{c_hi!r}:9"]),
        ]
        for name in malformed_documents():
            plan.append(("verify-malformed", {"doc": name}, ["verify", name, "--expect-order", "3"]))
        return [(kind, inputs, (lambda args=args: self.command(args))) for kind, inputs, args in plan]


WORKLOADS = {w.name: w for w in (CertifyCatalog, SweepGrid, AngleScan, CliSession)}

#: operations whose failure is the documented fault, not a benchmark error:
#: malformed documents exit 1 with a traceback instead of the documented 2,
#: because parse_document and document_to_sequence let TypeError and
#: ValueError escape.
KNOWN_FAULT_KINDS = {"verify-malformed"}


def failed(kind: str, output) -> bool:
    """Whether a finished operation failed; exceptions are caught by the caller."""
    if isinstance(output, dict) and "returncode" in output:
        expected = 2 if kind == "verify-malformed" else 0
        return output["returncode"] != expected
    return False

