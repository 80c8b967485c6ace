"""Print one SHA-256 per output family of compulse, to check that a change keeps every bit.

Run it from any directory on two checkouts and compare the lines:

    python3 tools/digest.py            # every family
    python3 tools/digest.py --no-cli   # skip the CLI families (fresh processes)

Where bits move by design, compare the values instead:

    python3 tools/digest.py --dump DIR      # on the first checkout
    python3 tools/digest.py --against DIR   # on the second

``--dump`` writes each family's numeric outputs, in hashing order, to
``DIR/<family>.npy`` as one complex array: every array flattened, every
number, and every number written in a text (CLI output, refusal messages).
``--against`` reads them back and prints, per family, how many values
differ, and the largest absolute and relative difference.

It imports compulse from ``src/`` of the checkout it lives in and reads only
the package's public names, ``compulse.su2`` and ``compulse.cli.MAX_DEGREE``.
The first line is the configuration the bits depend on: the numpy version,
numpy's baseline and enabled run-time dispatch SIMD targets, and the
OpenBLAS core (``unknown`` where numpy's bundled OpenBLAS does not say).
Other OpenBLAS kernels or SIMD levels print other lines for most families,
so compare digests only between runs with equal configuration lines.  Each
family hashes the dtype, shape and raw bytes of every array, the ``repr``
of every float, and the message of every refused input, in a fixed order, so
equal digests mean equal bits.  The families:

- ``infidelity_grid``: every catalog entry at 180, 37 and 123 degrees under
  ple, ore and sim, on a 1-D grid and an (E,1)x(1,F) grid (it takes real
  fractions only);
- ``infidelity_point``: the same sequences and models at one scalar point,
  which composes on Python complex numbers rather than arrays, so that a
  change which moves only scalar-point bits shows that grids and contours
  kept theirs;
- ``point_repeats``: ``infidelity_grid`` called again and again on the
  same pulse tuples at the scalar point, as a sweep does point by point:
  each sequence's tuple twice in a row, each pair of consecutive sequences
  alternating, and a tuple with a negative-angle pulse under ple, then ore
  and sim (refused), then ple again, so that a kept plan or target cannot
  change a bit or a refusal;
- ``grid_repeats``: the same repeated calls, but of the 1-D grid, in a
  family of its own for the reason ``infidelity_point`` has one;
- ``su2``: ``pulse_matrix``, ``propagator``, ``compose`` and
  ``residual_columns``, its two entries (W's first column) stacked along a
  last axis, of the same sequences, at the scalar point, on both real grids
  and on a complex contour;
- ``contour_sigma_norms``: 32 and 64 nodes, the same sequences;
- ``crossover_scan``: the README range, 45 seeded random angle grids, and
  40 seeded grids that bracket the bb1/sk2rot crossover: 20 of 24 points
  from 140-150 to 180 degrees (the benchmark's angle scan) and 20 of 9
  points from 158-162 to 174-178 degrees (its ``compare``), half of each
  reversed;
- ``crossover_angles``: the crossover angle and flag (or the refusal) of each
  of those scans, without the magnitudes, so that it stays put when a change
  moves the magnitudes by rounding but no crossover;
- ``fits``: ``estimate_order`` on both axes, ``fit_leading_coefficient`` at
  each found order and ``fidelity_surface`` with its derived degrees (or its
  refusal), over the catalog;
- ``sequences``: the ``repr`` (name, target, pulses, model kind, metadata) of
  every catalog entry at ``THETAS`` and 720 degrees, of every
  ``ple_pure_error`` and ``or_pure_error`` kind at five phases, and the
  message of every refused name, angle, kind and phase count;
- ``series``: the ``leading_error`` report, and the coefficients of the
  residual's alpha and beta and of its ``fidelity_series``, read through
  ``coeff(i, j)`` in lexicographic (i, j) order so that the storage layout
  does not enter, at degrees 1, 3, 8 and ``cli.MAX_DEGREE`` (16) of the same
  catalog entries in their design model (``simultaneous``: sim, the
  bivariate case), and of ``simultaneous`` under ple and ore as well;
- ``cli``: exit code, stdout and written files of the README commands;
- ``cli_refusals``: exit code, stdout and stderr of every refusal the CLI
  documents: unknown names, refused angles, unusable documents, a model
  without an axis, series overflow, a negative-angle pulse off resonance,
  unwritable outputs, too few or uncorrected ``compare`` variants, point
  counts beyond ``cli.MAX_POINTS``, and argparse's refusals of malformed
  options.  It also runs the malformed documents that still exit 1 with a
  traceback; their stderr is cut to the traceback's last line, because the
  line numbers in it move with any edit.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from compulse import (  # noqa: E402
    CATALOG,
    ErrorModel,
    build,
    compose,
    crossover_scan,
    estimate_order,
    fidelity_series,
    fidelity_surface,
    fit_leading_coefficient,
    leading_error,
    or_pure_error,
    ple_pure_error,
    propagator,
    residual,
)
from compulse import su2  # noqa: E402
from compulse.cli import MAX_DEGREE  # noqa: E402
from compulse.verify import infidelity_grid  # noqa: E402

THETAS = (math.pi, math.radians(37.0), math.radians(123.0))
KINDS = ("ple", "ore", "sim")
BUILD_THETAS = (*THETAS, math.radians(720.0))
SERIES_DEGREES = (1, 3, 8, MAX_DEGREE)
PHASES = (-0.4, 0.3, 1.1, 2.0, 4.5)
PLE_KINDS = ("x1", "y1", "x1inv", "y1inv", "z1", "z2", "z2prime", "x2prime", "x3", "six_pulse_z2")
OR_KINDS = ("b1", "y1prime", "x1", "y1", "x1prime", "z2", "z2prime", "x2")
REAL = np.geomspace(1e-4, 1e-1, 25)
GRIDS = {
    "scalar": lambda kind: (0.013, 0.007),
    "1-D": lambda kind: {"ple": (REAL, 0.0), "ore": (0.0, REAL), "sim": (REAL, REAL / 3.0)}[kind],
    "(E,1)x(1,F)": lambda kind: (np.linspace(-0.1, 0.1, 9)[:, None], np.geomspace(1e-3, 1e-1, 6)[None, :]),
    "contour": lambda kind: (su2.CONTOUR_EPS, su2.CONTOUR_EPS / 2.0),
}

README_COMMANDS = (
    ("synth", "bb1", "--theta", "90"),
    ("synth", "corpse", "--theta", "180", "--out", "corpse.json"),
    ("verify", "bb1", "--model", "ple", "--expect-order", "3"),
    ("verify", "corpse.json", "--expect-order", "2"),
    ("verify", "sk3", "--order", "4", "--json"),
    ("sweep", "bb1", "--model", "ple", "--grid", "1e-4:1e-1:25", "--out", "sweep.csv"),
    ("sweep", "simultaneous", "--grid", "1e-3:1e-1:15"),
    ("compare", "--variants", "bb1", "sk2rot", "--theta-range", "10:180:86"),
)

REFUSED_COMMANDS = (
    ("synth", "nosuch"),
    ("compare", "--variants", "bb1", "nosuch"),
    *((*cmd, name, "--theta", theta) for cmd in (("synth",), ("verify", "--order", "3"), ("sweep",))
      for name, theta in (("bb1", "0"), ("bb1", "900"), ("sk3", "90"))),
    *(("verify", doc, "--order", "3") for doc in ("missing.json", "not-json.json", "list.json",
                                                   "wrong-target.json", "metadata-list.json",
                                                   "angle-text.json", "angle-nan.json")),
    ("verify", "simultaneous", "--order", "3"),
    ("verify", "simple", "--theta", "1e308", "--order", "1"),
    ("sweep", "simple", "--theta", "-90", "--model", "ore"),
    ("synth", "bb1", "--out", "no-such-dir/x.json"),
    ("sweep", "bb1", "--model", "ple", "--out", "no-such-dir/x.csv"),
    ("compare", "--variants", "bb1"),
    ("compare", "--variants", "sk1", "bb1"),
    *(("synth", "simple", "--theta", theta) for theta in ("nan", "inf", "x")),
    *(("verify", "bb1", "--order", "3", "--degree", degree) for degree in ("0", "17", "2.5")),
    *(("sweep", "bb1", f"--grid={grid}") for grid in ("1:2", "nan:1e-1:5", "0:1:3", "-1:1:3", "2:1:3", "1:2:0")),
    *(("compare", "--variants", "bb1", "sk2rot", "--theta-range", spec)
      for spec in ("10:180:-3", "10:180:0", "10:inf:5", "10:180", "10:180:10000000000000")),
    ("sweep", "bb1", "--model", "ple", "--grid", "1e-4:1e-1:10000000000000"),
    ("sweep", "simultaneous", "--grid", "1e-3:1e-1:101"),
)


#: a decimal number inside a text
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


class Digest:
    """SHA-256 over a stream of arrays, floats, strings and refused calls,
    named after its family; ``values`` collects the numbers among them."""

    def __init__(self, name: str) -> None:
        self.name, self.sha, self.count, self.values = name, hashlib.sha256(), 0, []

    def add(self, value) -> None:
        self.count += 1
        if isinstance(value, (bytes, str)):
            text = value.encode() if isinstance(value, str) else value
            self.sha.update(text)
            self.values.extend(float(number) for number in NUMBER.findall(text))
        elif isinstance(value, (float, int, bool, type(None))):
            self.sha.update(repr(value).encode())
            if value is not None:
                self.values.append(float(value))
        else:
            a = np.ascontiguousarray(value)
            self.sha.update(f"{a.dtype.str}{a.shape}".encode())
            self.sha.update(a.tobytes())
            self.values.extend(a.ravel().astype(complex).tolist())

    def call(self, fn, *args) -> None:
        """Add ``fn(*args)``, or the message of the ValueError it raises."""
        try:
            self.add(fn(*args))
        except ValueError as exc:
            self.add(f"ValueError: {exc}")

    def line(self) -> str:
        return f"{self.name:22s} {self.sha.hexdigest()}  ({self.count} outputs)"

    def dump(self, folder: Path) -> None:
        np.save(folder / f"{self.name}.npy", np.array(self.values, dtype=complex))

    def against(self, folder: Path) -> str:
        """How far ``values`` are from those dumped in ``folder``."""
        path = folder / f"{self.name}.npy"
        if not path.exists():
            return f"{self.name:22s} no dump"
        new, old = np.array(self.values, dtype=complex), np.load(path)
        if new.shape != old.shape:
            return f"{self.name:22s} {len(new)} values against {len(old)}: not comparable"
        differ = ~((new == old) | (np.isnan(new) & np.isnan(old)))
        gap = np.abs(new - old)[differ]
        scale = np.abs(old)[differ]
        rel = gap[scale > 0.0] / scale[scale > 0.0]
        return (f"{self.name:22s} {int(differ.sum())} of {len(new)} values differ, "
                f"max abs {gap.max(initial=0.0):.3g}, max rel {rel.max(initial=0.0):.3g}")


def _sequences(thetas=THETAS):
    """Every catalog entry at every angle of ``thetas`` that it is defined at."""
    out = []
    for name in CATALOG:
        for theta in thetas:
            try:
                out.append((name, build(name, theta)))
            except ValueError:  # sk3 and some off-resonance entries take 180 degrees only
                pass
    return out


def _residual_entries(pulses, kind, eps, f, u) -> np.ndarray:
    return np.stack(su2.residual_columns(pulses, kind, eps, f, u), axis=-1)


def grid_families() -> list[Digest]:
    infid, point = Digest("infidelity_grid"), Digest("infidelity_point")
    mats, norms = Digest("su2"), Digest("contour_sigma_norms")
    for _, seq in _sequences():
        u = su2.rotation(seq.target.angle, seq.target.phase)
        for kind in KINDS:
            for name, grid in GRIDS.items():
                eps, f = grid(kind)
                if name != "contour":  # infidelity_grid takes real fractions
                    (point if name == "scalar" else infid).call(infidelity_grid, seq, kind, eps, f, seq.target)
                mats.call(_residual_entries, seq.pulses, kind, eps, f, u)
            mats.call(su2.pulse_matrix, seq.pulses[0], kind, 0.013, 0.007)
            model = {"ple": ErrorModel.pulse_length(0.013), "ore": ErrorModel.off_resonance(0.007),
                     "sim": ErrorModel.simultaneous(0.013, 0.007)}[kind]
            mats.call(propagator, seq.pulses[-1], model)
            mats.call(compose, seq, model)
        for points in (32, 64):
            norms.call(su2.contour_sigma_norms, seq.pulses, u, points)
    return [infid, point, *repeat_families(), mats, norms]


def repeat_families() -> list[Digest]:
    point, grid = Digest("point_repeats"), Digest("grid_repeats")
    seqs = [seq for _, seq in _sequences()]
    for kind in KINDS:
        for d, (eps, f) in ((point, GRIDS["scalar"](kind)), (grid, GRIDS["1-D"](kind))):
            for seq in seqs:
                for _ in range(2):
                    d.call(infidelity_grid, seq.pulses, kind, eps, f, seq.target)
            for a, b in zip(seqs, seqs[1:]):
                for seq in (a, b, a, b):
                    d.call(infidelity_grid, seq.pulses, kind, eps, f, seq.target)
    negative = build("simple", -math.pi / 2)
    for kind in ("ple", "ore", "sim", "ple"):
        point.call(infidelity_grid, negative.pulses, kind, 0.013, 0.007, negative.target)
    return [point, grid]


def _scan(d: Digest, angles: Digest, names, thetas) -> float | None:
    """Add one scan to ``d`` and its crossover alone to ``angles``."""
    try:
        result = crossover_scan(names, thetas)
    except ValueError as exc:
        for digest in (d, angles):
            digest.add(f"ValueError: {exc}")
        return None
    d.add(result.thetas)
    for name in names:
        d.add(result.magnitudes[name])
    for digest in (d, angles):
        digest.add(result.crossover_theta)
        digest.add(result.flagged)
    return result.crossover_theta


def crossover_family() -> list:
    d, angles = Digest("crossover_scan"), Digest("crossover_angles")
    readme = _scan(d, angles, ("bb1", "sk2rot"), np.radians(np.linspace(10.0, 180.0, 86)))
    rng = np.random.default_rng(20071108)
    pairs = (("bb1", "sk2rot"), ("sk2", "sk2rot"), ("sk2", "bb1"))
    for i in range(45):
        lo = rng.uniform(10.0, 170.0)
        hi = rng.uniform(lo + 1.0, 180.0)
        _scan(d, angles, pairs[i % 3], np.radians(np.linspace(lo, hi, int(rng.integers(2, 31)))))
    rng = np.random.default_rng(20071109)
    for i in range(20):
        scan = np.radians(np.linspace(rng.uniform(140.0, 150.0), 180.0, 24))
        compare = np.radians(np.linspace(rng.uniform(158.0, 162.0), rng.uniform(174.0, 178.0), 9))
        for thetas in (scan, compare):
            _scan(d, angles, ("bb1", "sk2rot"), thetas[::-1] if i % 2 else thetas)
    return [d, angles, f"{'readme crossover':22s} {readme!r}"]


def fit_family() -> list[Digest]:
    d = Digest("fits")
    for name, seq in _sequences():
        for axis in ("eps", "f"):
            try:
                r = estimate_order(seq, axis)
            except ValueError as exc:
                d.add(f"ValueError: {exc}")
                continue
            for value in (r.values, r.infidelities, r.slope, r.intercept, r.order, r.ambiguous,
                          r.beyond_resolution, r.fit_residual, r.points_used):
                d.add(value)
            if r.order is not None:
                d.call(fit_leading_coefficient, seq, axis, 2 * r.order)
        if name == "simultaneous" or seq.target_theta == math.pi:
            try:
                s = fidelity_surface(seq)
            except ValueError as exc:
                d.add(f"ValueError: {exc}")
                continue
            for value in (s.eps_grid, s.f_grid, s.infidelity, s.coeff_eps, s.eps_degree, s.coeff_f, s.f_degree,
                          s.coeff_cross):
                d.add(value)
    return [d]


def _built(build_fn, *args) -> str:
    return repr(build_fn(*args))


def sequence_family() -> list[Digest]:
    d = Digest("sequences")
    for name in (*CATALOG, "no-such-sequence"):
        for theta in BUILD_THETAS:
            d.call(_built, build, name, theta)
    for i, phi in enumerate(PHASES):
        for kind in PLE_KINDS:
            d.call(_built, ple_pure_error, kind, phi)
        d.call(_built, ple_pure_error, "z2general", phi, PHASES[(i + 2) % len(PHASES)])
        for kind in OR_KINDS:
            d.call(_built, or_pure_error, kind, phi)
    for kind in (*PLE_KINDS, "z2general"):
        for count in range(4):
            d.call(_built, ple_pure_error, kind, *PHASES[:count])
    d.call(_built, ple_pure_error, "w7", 0.1)
    d.call(_built, or_pure_error, "q1", 0.1)
    return [d]


def _coefficients(s) -> np.ndarray:
    """Every coefficient of a scalar series, in lexicographic (i, j) order."""
    return np.array([s.coeff(i, j) for i in range(s.degree + 1) for j in range(s.degree + 1 - i)])


def series_family() -> list[Digest]:
    d = Digest("series")
    runs = []
    for name, seq in _sequences(BUILD_THETAS):
        runs.append((seq, seq.model_kind))
        if name == "simultaneous":
            runs += [(seq, "ple"), (seq, "ore")]
    for degree in SERIES_DEGREES:
        for seq, kind in runs:
            d.add(f"{seq.name} {seq.target_theta!r} {kind} {degree}")
            try:
                a = residual(seq.pulses, seq.target, kind, degree)
            except ValueError as exc:
                d.add(f"ValueError: {exc}")
                continue
            d.call(lambda: repr(leading_error(a)))
            d.add(_coefficients(a.alpha))
            d.add(_coefficients(a.beta))
            d.call(lambda: _coefficients(fidelity_series(a)))
    return [d]


def _cli(argv, cwd: str) -> subprocess.CompletedProcess:
    """``compulse ARGV...`` in a fresh process, run in ``cwd``."""
    return subprocess.run([sys.executable, "-m", "compulse.cli", *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True)


def cli_family() -> list[Digest]:
    d = Digest("cli")
    with tempfile.TemporaryDirectory() as tmp:
        for argv in README_COMMANDS:
            run = _cli(argv, tmp)
            d.add(" ".join(argv))
            d.add(run.returncode)
            d.add(run.stdout)
        for name in sorted(os.listdir(tmp)):
            d.add(name)
            d.add(Path(tmp, name).read_bytes())
    return [d]


def _refused_documents() -> dict[str, str]:
    """Documents ``verify`` refuses; the last three still exit 1 with a traceback."""
    phi = math.degrees(math.acos(-0.25))
    good = {"schema_version": 1, "name": "bb1", "target_theta_deg": 180.0, "error_model": "ple",
            "convention": "chronological",
            "pulses": [{"angle_deg": a, "phase_deg": p} for a, p in ((180.0, 0.0), (180.0, phi),
                                                                      (360.0, 3 * phi), (180.0, phi))],
            "metadata": {}}

    def broken(**change) -> str:
        doc = json.loads(json.dumps(good))
        doc.update(change)
        return json.dumps(doc, indent=2)

    def angle(value) -> str:
        pulses = [dict(p) for p in good["pulses"]]
        pulses[1]["angle_deg"] = value
        return broken(pulses=pulses)

    return {"not-json.json": "{not json", "list.json": "[1, 2]", "wrong-target.json": broken(target_theta_deg=30.0),
            "metadata-list.json": broken(metadata=[1, 2]), "angle-text.json": angle("one hundred eighty"),
            "angle-nan.json": angle(float("nan"))}


def cli_refusal_family() -> list[Digest]:
    d = Digest("cli_refusals")
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in _refused_documents().items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        for argv in REFUSED_COMMANDS:
            run = _cli(argv, tmp)
            stderr = run.stderr
            if stderr.startswith(b"Traceback"):
                stderr = stderr.splitlines()[-1]
            d.add(" ".join(argv))
            d.add(run.returncode)
            d.add(run.stdout)
            d.add(stderr)
    return [d]


def _openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS runs, or "unknown"."""
    for path in sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def configuration_line() -> str:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    dispatch = [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]
    return (f"{'configuration':22s} numpy {np.__version__}, baseline {' '.join(umath.__cpu_baseline__) or '-'}, "
            f"dispatch {' '.join(dispatch) or '-'}, openblas {_openblas_core()}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--no-cli", action="store_true", help="skip the CLI families")
    parser.add_argument("--dump", type=Path, metavar="DIR", help="write each family's numeric outputs to DIR")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="compare each family's numeric outputs with those dumped in DIR")
    args = parser.parse_args()
    families = grid_families() + crossover_family() + fit_family() + sequence_family() + series_family()
    if not args.no_cli:
        families += cli_family() + cli_refusal_family()
    digests = [family for family in families if isinstance(family, Digest)]
    lines = [configuration_line()] + [family if isinstance(family, str) else family.line() for family in families]
    if args.dump is not None:
        args.dump.mkdir(parents=True, exist_ok=True)
        for digest in digests:
            digest.dump(args.dump)
    if args.against is not None:
        lines += [digest.against(args.against) for digest in digests]
    print("\n".join(lines))


if __name__ == "__main__":
    main()
