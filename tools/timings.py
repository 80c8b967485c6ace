"""Print the layer rows of the ROADMAP Baseline table, timed in process.

    python3 tools/timings.py

Each figure is the best of five ``timeit`` repeats of one call, every repeat
running the call as many times as ``timeit``'s autorange picks (at least
0.2 s).  The first line is the configuration line of ``tools/digest.py``:
the numpy version, its SIMD targets and the OpenBLAS core, which the
figures depend on as well as the host.  The rows, as markdown table rows:

- ``sequence_series`` and ``residual`` at degree 8 of bb1, sk3,
  or-second-xz and simultaneous at 180 degrees, each in its design model;
- ``infidelity_grid`` of the same four in their design models, at one point
  (eps, f) = (0.013, 0.007), the fraction a model does not carry left at 0,
  and on a 300-point geometric grid from 1e-4 to 1e-1 along each
  sequence's axis (simultaneous: eps on the grid, f a third of it).  Both
  pass the sequence's own pulse tuple, as a sweep does point by point;
- ``estimate_order`` of sk3 along eps (25-point default sweep);
- ``fidelity_surface`` of simultaneous (derived degrees, default grids);
- ``crossover_scan`` of bb1 against sk2rot on the README range, 86 angles
  from 10 to 180 degrees.

It needs numpy alone and imports compulse from ``src/`` of the checkout it
lives in.  Compare figures only between runs on the same host, interleaved,
and prefer ``perfbench/`` for any claimed gain: the host's speed drifts.
"""

from __future__ import annotations

import math
import timeit

import numpy as np

from digest import configuration_line  # the sibling tool; it puts src/ on the path

from compulse import build, crossover_scan, estimate_order, fidelity_surface, residual, sequence_series
from compulse.verify import infidelity_grid

NAMES = ("bb1", "sk3", "or-second-xz", "simultaneous")
DEGREE = 8
POINT = (0.013, 0.007)
GRID = np.geomspace(1e-4, 1e-1, 300)
README_THETAS = np.radians(np.linspace(10.0, 180.0, 86))


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
    sk3, simultaneous = seqs[1], seqs[3]
    out += [
        _row("`estimate_order` sk3 (25-point sweep)", [best(lambda: estimate_order(sk3, "eps"))], "ms"),
        _row("`fidelity_surface` simultaneous (derived degrees)", [best(lambda: fidelity_surface(simultaneous))],
             "ms"),
        _row(f"`crossover_scan` bb1,sk2rot × {README_THETAS.size} (README range)",
             [best(lambda: crossover_scan(("bb1", "sk2rot"), README_THETAS))], "ms"),
    ]
    return out


def main() -> None:
    print(configuration_line())
    for row in rows():
        print(row, flush=True)


if __name__ == "__main__":
    main()
