"""Composite pulse synthesis, series expansion and error-order certification.

The public names below live in five modules and are looked up in them on
each access (PEP 562), never copied here, so a patched module attribute is
what ``compulse.<name>`` returns.  ``import compulse`` loads none of the
modules, and importing ``compulse.verify``, ``compulse.sequences`` or
``compulse.su2`` loads no series code: the numeric route stays independent
of the series engine in the running process, not only in the source.
``compulse.pulse`` (the pulse and error-model types) and
``compulse.sequences`` load no numpy either, so ``compulse.Pulse`` and
``compulse.build`` of any entry but sk3 run on the standard library alone.
"""

import importlib

__version__ = "0.1.0"

#: module -> the public names it provides, in ``__all__`` order
_NAMES = {
    "pulse": ("MODEL_KINDS", "PULSE_LENGTH", "OFF_RESONANCE", "SIMULTANEOUS", "Pulse", "ErrorModel"),
    "su2": (
        "IDENTITY", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "PauliDecomposition", "rotation", "propagator", "compose",
        "adjoint", "fidelity", "pauli_decompose",
    ),
    "series": (
        "DEFAULT_DEGREE", "ScalarSeries", "MatrixSeries", "ErrorTermReport", "propagator_series",
        "sequence_series", "residual", "leading_error", "fidelity_series",
    ),
    "sequences": (
        "PulseSequence", "SolverFailure", "CATALOG", "bb1", "solve_third_order", "corpse", "short_corpse",
        "ple_pure_error", "or_pure_error", "shift_phases", "build",
    ),
    "verify": (
        "SweepResult", "CrossoverResult", "SurfaceFit", "estimate_order", "fit_leading_coefficient",
        "crossover_scan", "inverse_quality", "fidelity_surface", "geometric_grid",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = [name for names in _NAMES.values() for name in names]


def __getattr__(name):
    if name in _NAMES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_NAMES))
