"""Print the layer and process rows of the ROADMAP Baseline table.

    python3 tools/timings.py

Each layer figure is the best of five ``timeit`` repeats of one call, every
repeat running the call as many times as ``timeit``'s autorange picks (at
least 0.2 s).  The first line is the configuration line of
``tools/digest.py``: the numpy version, its SIMD targets and the OpenBLAS
core, which the figures depend on as well as the host.  The second says
whether ``PYTHONDONTWRITEBYTECODE`` is set: when it is, no bytecode cache is
written, and every fresh process compiles compulse's sources again.  The
rows, as markdown table rows:

- ``sequence_series`` and ``residual`` at degree 8 of bb1, sk3,
  or-second-xz and simultaneous at 180 degrees, each in its design model;
- ``infidelity_grid`` of the same four in their design models, at one point
  (eps, f) = (0.013, 0.007), the fraction a model does not carry left at 0,
  and on a 300-point geometric grid from 1e-4 to 1e-1 along each
  sequence's axis (simultaneous: eps on the grid, f a third of it).  Both
  pass the sequence's own pulse tuple, as a sweep does point by point;
- ``estimate_order`` of sk3 along eps (25-point default sweep);
- ``fit_leading_coefficient`` of bb1 along eps (degree 6) and of corpse
  along f (degree 4), each one contour read-out;
- ``fidelity_surface`` of simultaneous (derived degrees, default grids);
- ``crossover_scan`` of bb1 against sk2rot on the README range, 86 angles
  from 10 to 180 degrees;
- the contour read-outs: ``contour_sigma_norms`` of sk2rot at 160 degrees
  (one bisection step's composition), ``verify._degree3_magnitudes`` of
  sk2rot over 24 angles from 140 to 180 degrees (one batched variant of an
  angle-scan round) and ``verify._torus_coefficients`` of simultaneous at
  degrees 6 and 4 (its three surface coefficients, read on the 32x32 torus);
- fresh processes, each the median and the best of five wall times from
  spawn to exit: ``python -c pass``, ``import numpy`` and
  ``import compulse.cli``; the CLI commands ``synth bb1``,
  ``verify sk3 --order 4 --json``, ``compare`` over the README range and
  ``sweep simultaneous``; and one ``verify`` of a document that is not
  valid JSON.

It needs numpy alone and imports compulse from ``src/`` of the checkout it
lives in.  Compare figures only between runs on the same host, interleaved,
and prefer ``perfbench/`` for any claimed gain: the host's speed drifts.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
import timeit

import numpy as np

from digest import SRC, configuration_line  # the sibling tool; it puts src/ on the path

from compulse import (build, crossover_scan, estimate_order, fidelity_surface, fit_leading_coefficient, residual,
                      sequence_series)
from compulse.su2 import contour_sigma_norms, rotation
from compulse.verify import _degree3_magnitudes, _torus_coefficients, infidelity_grid

NAMES = ("bb1", "sk3", "or-second-xz", "simultaneous")
DEGREE = 8
POINT = (0.013, 0.007)
GRID = np.geomspace(1e-4, 1e-1, 300)
README_THETAS = np.radians(np.linspace(10.0, 180.0, 86))
SCAN_THETAS = np.radians(np.linspace(140.0, 180.0, 24))
#: (row label, the fresh process's arguments after ``python``)
PROCESSES = (
    ("`python -c pass`", ("-c", "pass")),
    ('`python -c "import numpy"`', ("-c", "import numpy")),
    ("`import compulse.cli`", ("-c", "import compulse.cli")),
    ("CLI `synth bb1`", ("-m", "compulse.cli", "synth", "bb1")),
    ("CLI `verify sk3 --order 4 --json`", ("-m", "compulse.cli", "verify", "sk3", "--order", "4", "--json")),
    ("CLI `compare` (README range)",
     ("-m", "compulse.cli", "compare", "--variants", "bb1", "sk2rot", "--theta-range", "10:180:86")),
    ("CLI `sweep simultaneous`", ("-m", "compulse.cli", "sweep", "simultaneous", "--grid", "1e-3:1e-1:15")),
    ("CLI `verify` of a document that is not JSON", ("-m", "compulse.cli", "verify", "bad.json", "--order", "3")),
)


def best(call) -> float:
    """Seconds per call of ``call``: the best of five autoranged repeats."""
    timer = timeit.Timer(call)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=5, number=number)) / number


def _fractions(kind: str, point: bool):
    """(eps, f) of the one-point or the 300-point sweep under ``kind``."""
    if point:
        eps, f = POINT
        return (eps, 0.0) if kind == "ple" else (0.0, f) if kind == "ore" else (eps, f)
    return {"ple": (GRID, 0.0), "ore": (0.0, GRID), "sim": (GRID, GRID / 3.0)}[kind]


def _row(layer: str, seconds, unit: str) -> str:
    scale = {"ms": 1e3, "µs": 1e6}[unit]
    figures = " / ".join(f"{t * scale:.3g}" for t in seconds)
    return f"| {layer} | {figures} {unit} |"


def rows() -> list[str]:
    seqs = [build(name, math.pi) for name in NAMES]
    names = " / ".join(NAMES)
    out = [
        _row(f"`sequence_series` deg {DEGREE}: {names}",
             [best(lambda s=s: sequence_series(s.pulses, s.model_kind, DEGREE)) for s in seqs], "ms"),
        _row(f"`residual` deg {DEGREE}, same four",
             [best(lambda s=s: residual(s.pulses, s.target, s.model_kind, DEGREE)) for s in seqs], "ms"),
    ]
    for point, layer, unit in ((True, "one point", "µs"), (False, f"{GRID.size}-point grid", "ms")):
        times = [best(lambda s=s, ef=_fractions(s.model_kind, point):
                      infidelity_grid(s.pulses, s.model_kind, *ef, s.target)) for s in seqs]
        out.append(_row(f"`infidelity_grid` {layer}, same four", times, unit))
    bb1, sk3, simultaneous = seqs[0], seqs[1], seqs[3]
    corpse = build("corpse", math.pi)
    out += [
        _row("`estimate_order` sk3 (25-point sweep)", [best(lambda: estimate_order(sk3, "eps"))], "ms"),
        _row("`fit_leading_coefficient` bb1 eps / corpse f",
             [best(lambda: fit_leading_coefficient(bb1, "eps", 6)),
              best(lambda: fit_leading_coefficient(corpse, "f", 4))], "ms"),
        _row("`fidelity_surface` simultaneous (derived degrees)", [best(lambda: fidelity_surface(simultaneous))],
             "ms"),
        _row(f"`crossover_scan` bb1,sk2rot × {README_THETAS.size} (README range)",
             [best(lambda: crossover_scan(("bb1", "sk2rot"), README_THETAS))], "ms"),
    ]
    sk2rot = build("sk2rot", math.radians(160.0))
    u = rotation(sk2rot.target.angle, sk2rot.target.phase)
    out.append(_row(f"contour read-outs: `contour_sigma_norms` sk2rot at 160° / `_degree3_magnitudes` sk2rot × "
                    f"{SCAN_THETAS.size} (140-180°) / `_torus_coefficients` simultaneous",
                    [best(lambda: contour_sigma_norms(sk2rot.pulses, u)),
                     best(lambda: _degree3_magnitudes("sk2rot", SCAN_THETAS)),
                     best(lambda: _torus_coefficients(simultaneous, 6, 4))], "ms"))
    return out


def process_rows() -> list[str]:
    """One row per entry of ``PROCESSES``: median and best of five fresh processes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "bad.json"), "w", encoding="utf-8") as fh:
            fh.write("{not json")
        for label, args in PROCESSES:
            times = []
            for _ in range(5):
                start = time.perf_counter()
                subprocess.run([sys.executable, *args], cwd=tmp, env=env,
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                times.append(time.perf_counter() - start)
            out.append(f"| {label}, fresh process | {statistics.median(times) * 1e3:.0f} ms "
                       f"(best {min(times) * 1e3:.0f} ms) |")
    return out


def main() -> None:
    print(configuration_line())
    bytecode = "set (no bytecode cache is written)" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "unset"
    print(f"PYTHONDONTWRITEBYTECODE {bytecode}")
    for row in rows() + process_rows():
        print(row, flush=True)


if __name__ == "__main__":
    main()
