"""Command line front end: synthesize, verify, sweep and compare sequences.

Angles cross this boundary in degrees; everything inside the library is
radians.  Sequence documents are JSON with a fixed schema and chronological
pulse order; sweeps are plain CSV.

Exit codes: 0 success, 1 verification mismatch, 2 bad usage or malformed
input, 3 unsolvable target angle, 4 unwritable output.  Commands return 0 or 1
and raise a :class:`CliError` for a refusal; :func:`main` alone decides exit codes.

numpy loads only in the commands that compose: ``verify``, ``sweep`` and
``compare``, each once its input has passed every check that needs no
composition, and ``sweep --grid``, whose grid is a numpy array.  ``synth``
and the refusals raised before anything is composed (an unreadable or
invalid document, an unknown name, a bad option) run without numpy, unless
the catalog entry is sk3, whose phase solver composes.  Only ``verify``
loads the series engine.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field

from .pulse import KIND_AXIS, MODEL_KINDS, SIMULTANEOUS, Pulse
from .sequences import CATALOG, PulseSequence, build

SCHEMA_VERSION = 1
_INT_METADATA = ("na", "nb", "nc")
#: largest accepted ``verify --degree``; a series holds (N+1)(N+2)/2 coefficients
MAX_DEGREE = 16
#: most error points a sweep composes (n^2 for the n x n grid of ``sweep`` under
#: sim) and most angles ``compare`` scans; a larger count is refused before
#: anything is allocated
MAX_POINTS = 10_000

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_UNSOLVABLE = 3
EXIT_UNWRITABLE = 4


class CliError(Exception):
    """A refused command: its message is the ``error:`` line, ``code`` the exit code."""

    code = EXIT_USAGE


class DocumentError(CliError, ValueError):
    """A sequence document is malformed or violates the schema."""


class UnsolvableTarget(CliError, ValueError):
    """A catalog entry has no sequence for the requested target angle."""

    code = EXIT_UNSOLVABLE


class Unwritable(CliError):
    """The output file or stdout cannot be written."""

    code = EXIT_UNWRITABLE


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _deg(x: float) -> float:
    return _round12(math.degrees(x))


@dataclass(frozen=True)
class SequenceDocument:
    """Serialized form of a pulse sequence.

    Pulse angles and phases are degrees rounded to 12 significant digits, so
    a parse/serialize round trip is exact.  ``convention`` is always
    "chronological": the first listed pulse is applied first.
    """

    schema_version: int
    name: str
    target_theta_deg: float
    error_model: str
    convention: str
    pulses: tuple
    metadata: dict = field(default_factory=dict)


def build_document(seq: PulseSequence) -> SequenceDocument:
    meta = {}
    for key, value in seq.metadata.items():
        if key in _INT_METADATA:
            meta[key] = int(value)
        else:
            meta[key] = _deg(float(value))
    if seq.target_phi:
        meta["target_phi_deg"] = _deg(seq.target_phi)
    return SequenceDocument(
        schema_version=SCHEMA_VERSION,
        name=seq.name,
        target_theta_deg=_deg(seq.target_theta),
        error_model=seq.model_kind,
        convention="chronological",
        pulses=tuple(
            {"angle_deg": _deg(p.angle), "phase_deg": _deg(p.phase)} for p in seq.pulses
        ),
        metadata=meta,
    )


def serialize_document(doc: SequenceDocument) -> str:
    payload = asdict(doc)
    payload["pulses"] = list(payload["pulses"])
    return json.dumps(payload, indent=2) + "\n"


def parse_document(text: str) -> SequenceDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")
    required = ("schema_version", "name", "target_theta_deg", "error_model", "convention", "pulses")
    for key in required:
        if key not in raw:
            raise DocumentError(f"missing required field {key!r}")
    if type(raw["schema_version"]) is not int or raw["schema_version"] != SCHEMA_VERSION:  # True == 1.0 == 1
        raise DocumentError(f"unsupported schema_version {raw['schema_version']!r}")
    if raw["convention"] != "chronological":
        raise DocumentError(f"unsupported pulse convention {raw['convention']!r}")
    if raw["error_model"] not in MODEL_KINDS:
        raise DocumentError(f"unknown error_model {raw['error_model']!r}")
    pulses = raw["pulses"]
    if not isinstance(pulses, list) or not pulses:
        raise DocumentError("pulses must be a non-empty list")
    for p in pulses:
        if not isinstance(p, dict) or "angle_deg" not in p or "phase_deg" not in p:
            raise DocumentError("each pulse needs angle_deg and phase_deg")
    return SequenceDocument(
        schema_version=raw["schema_version"],
        name=str(raw["name"]),
        target_theta_deg=float(raw["target_theta_deg"]),
        error_model=raw["error_model"],
        convention=raw["convention"],
        pulses=tuple({"angle_deg": float(p["angle_deg"]), "phase_deg": float(p["phase_deg"])} for p in pulses),
        metadata=dict(raw.get("metadata", {})),
    )


def document_to_sequence(doc: SequenceDocument) -> PulseSequence:
    pulses = tuple(
        Pulse(math.radians(p["angle_deg"]), math.radians(p["phase_deg"])) for p in doc.pulses
    )
    target_phi = math.radians(float(doc.metadata.get("target_phi_deg", 0.0)))
    meta = {
        k: (int(v) if k in _INT_METADATA else math.radians(float(v)))
        for k, v in doc.metadata.items()
        if k != "target_phi_deg"
    }
    return PulseSequence(
        name=doc.name,
        target_theta=math.radians(doc.target_theta_deg),
        pulses=pulses,
        model_kind=doc.error_model,
        target_phi=target_phi,
        metadata=meta,
    )


def _catalog_sequence(name: str, theta_deg: float) -> PulseSequence:
    """The catalog entry ``name`` at ``theta_deg``; an unknown name or a refused angle is a refusal."""
    if name not in CATALOG:
        raise CliError(f"unknown sequence name {name!r}")
    try:
        return build(name, math.radians(theta_deg))
    except ValueError as exc:
        raise UnsolvableTarget(str(exc)) from exc


def _load_sequence(spec: str, theta_deg: float) -> PulseSequence:
    """A catalog name or a path to a sequence document.

    A catalog entry that refuses the angle raises :class:`UnsolvableTarget`,
    a bad document :class:`DocumentError`.
    """
    if spec in CATALOG:
        return _catalog_sequence(spec, theta_deg)
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError:
        raise DocumentError(f"{spec!r} is neither a catalog name nor a readable file") from None
    except UnicodeDecodeError:
        raise DocumentError(f"{spec!r} is not UTF-8 text") from None
    return document_to_sequence(parse_document(text))


def _write_text(path: str | None, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout for None or "-": the CLI's only writer."""
    to_stdout = path is None or path == "-"
    try:
        if to_stdout:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        if to_stdout:  # so that the flush at interpreter exit cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.close(devnull)
        raise Unwritable(f"cannot write output: {exc}") from exc


def _option(spec: str, parse, message: str, valid=lambda value: True):
    """``parse(spec)``; argparse refuses the option with ``message`` unless it reads and is ``valid``."""
    try:
        value = parse(spec)
        if not valid(value):
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"{message}, got {spec!r}") from None
    return value


def _min_max_points(spec: str) -> tuple[float, float, int]:
    """``min:max:points`` with finite ends and points >= 1, or ValueError."""
    lo, hi, n = spec.split(":")
    lo, hi, n = float(lo), float(hi), int(n)
    if n < 1 or not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError
    return lo, hi, n


def _checked_count(spec: str, points: int, what: str) -> None:
    """Refuse ``points`` beyond ``MAX_POINTS`` as argparse refuses a malformed option."""
    if points > MAX_POINTS:
        raise argparse.ArgumentTypeError(f"{what} must have at most {MAX_POINTS} points, got {spec!r}")


def _parse_grid(spec: str):
    lo, hi, n = _option(spec, _min_max_points,
                        "grid must be min:max:points with finite 0 <= min <= max (geometric needs min > 0)",
                        lambda r: 0 <= r[0] <= r[1] and (r[0] > 0 or r[0] == r[1]))
    _checked_count(spec, n, "grid")
    import numpy as np

    return np.full(n, lo) if lo == hi else np.geomspace(lo, hi, n)


def cmd_synth(args) -> int:
    seq = _catalog_sequence(args.name, args.theta)
    _write_text(args.out, serialize_document(build_document(seq)))
    return EXIT_OK


def cmd_verify(args) -> int:
    seq = _load_sequence(args.sequence, args.theta)
    model_kind = args.model or seq.model_kind
    axis = KIND_AXIS.get(model_kind)
    if axis is None:
        raise CliError("verify needs a single error axis; use --model ple or --model ore")
    from . import series, verify

    degree = series.DEFAULT_DEGREE if args.degree is None else args.degree
    try:
        report = series.leading_error(series.residual(seq.pulses, seq.target, model_kind, degree))
    except ValueError as exc:
        # declared target does not match the pulse list (or similar defect)
        raise CliError(str(exc)) from exc
    sweep = verify.estimate_order(seq, axis)
    coeff = report.infidelity_coefficient
    ok = report.order == args.expect_order and sweep.order == args.expect_order
    if args.json:
        payload = {
            "sequence": seq.name,
            "target_theta_deg": math.degrees(seq.target_theta),
            "error_model": model_kind,
            "series_order": report.order,
            "numeric_order": sweep.order,
            "loglog_slope": sweep.slope,
            "leading_infidelity_coefficient": coeff,
            "infidelity_degree": report.infidelity_degree,
            "expected_order": args.expect_order,
            "match": ok,
        }
        lines = [json.dumps(payload, indent=2)]
    else:
        lines = [
            f"sequence:        {seq.name} (target {math.degrees(seq.target_theta):g} deg)",
            f"error model:     {model_kind}",
            f"series order:    {report.order if report.order is not None else f'> {degree}'}",
        ]
        if sweep.beyond_resolution:
            lines.append("numeric order:   beyond numeric resolution (exact to rounding)")
        elif sweep.slope is None:
            lines.append("numeric order:   n/a (too few clean sweep points)")
        else:
            shown = sweep.order if sweep.order is not None else "ambiguous"
            lines.append(f"numeric order:   {shown} (log-log slope {sweep.slope:.4f})")
        if coeff is not None:
            lines.append(f"leading infidelity: {coeff:.6g} * x^{report.infidelity_degree}")
        lines.append(f"expected order:  {args.expect_order} -> {'OK' if ok else 'MISMATCH'}")
    _write_text(None, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_sweep(args) -> int:
    seq = _load_sequence(args.sequence, args.theta)
    model_kind = args.model or seq.model_kind
    if model_kind == SIMULTANEOUS and args.grid is not None and len(args.grid) ** 2 > MAX_POINTS:
        raise CliError(f"a sweep under both errors composes an n x n grid, so n^2 must be at most {MAX_POINTS}, "
                       f"got n = {len(args.grid)}")
    from . import verify

    try:
        if model_kind == SIMULTANEOUS:
            grid = args.grid if args.grid is not None else verify.geometric_grid()
            ys = verify.infidelity_grid(seq.pulses, model_kind, grid[:, None], grid[None, :], seq.target)
        else:
            grid, ys = verify.axis_sweep(seq, KIND_AXIS[model_kind], args.grid)
    except ValueError as exc:
        # e.g. a negative-angle pulse under an off-resonance model
        raise CliError(str(exc)) from exc
    if model_kind == SIMULTANEOUS:
        lines = ["epsilon,f,infidelity"]
        for e, row in zip(grid, ys):
            lines.extend(f"{e:.12g},{f:.12g},{y:.12g}" for f, y in zip(grid, row))
    else:
        lines = ["error_value,infidelity"]
        lines.extend(f"{x:.12g},{y:.12g}" for x, y in zip(grid, ys))
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_compare(args) -> int:
    names = []
    for chunk in args.variants:
        names.extend(n for n in chunk.split(",") if n)
    if len(names) < 2:
        raise CliError("need at least two variants to compare")
    for n in names:
        if n not in CATALOG:
            raise CliError(f"unknown sequence name {n!r}")
    import numpy as np

    from . import verify

    lo, hi, npts = args.theta_range
    thetas = np.radians(np.linspace(lo, hi, npts))
    try:
        result = verify.crossover_scan(names, thetas)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    lines = ["theta_deg," + ",".join(names)]
    for i, t in enumerate(result.thetas):
        lines.append(",".join([f"{math.degrees(t):.6g}"] + [f"{result.magnitudes[n][i]:.8g}" for n in names]))
    if result.crossover_theta is not None:
        lines.append(f"# crossover of {names[0]} vs {names[1]} at "
                     f"{math.degrees(result.crossover_theta):.3f} deg")
    else:
        lines.append(f"# no crossover of {names[0]} vs {names[1]} in range (flagged)")
    _write_text(None, "\n".join(lines) + "\n")
    return EXIT_OK


def _parse_degree(spec: str) -> int:
    return _option(spec, int, f"degree must be an integer in 1..{MAX_DEGREE}",
                   lambda degree: 1 <= degree <= MAX_DEGREE)


def _theta(spec: str) -> float:
    return _option(spec, float, "theta must be a finite angle in degrees", math.isfinite)


def _theta_range(spec: str) -> tuple[float, float, int]:
    lo, hi, n = _option(spec, _min_max_points,
                        "theta range must be min:max:points in degrees, with finite ends and points >= 1")
    _checked_count(spec, n, "theta range")
    return lo, hi, n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="compulse",
        description="Composite pulse synthesis and error-order certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="emit a sequence document as JSON")
    p_synth.add_argument("name", help=f"catalog name, one of: {', '.join(sorted(CATALOG))}")
    p_synth.add_argument("--theta", type=_theta, default=180.0, help="target angle in degrees")
    p_synth.add_argument("--out", default=None, help="output path (default stdout)")
    p_synth.set_defaults(func=cmd_synth)

    p_verify = sub.add_parser("verify", help="check error order by series and by sweep")
    p_verify.add_argument("sequence", help="catalog name or document path")
    p_verify.add_argument("--model", choices=list(MODEL_KINDS), default=None)
    p_verify.add_argument("--expect-order", "--order", dest="expect_order", type=int, required=True)
    p_verify.add_argument("--theta", type=_theta, default=180.0, help="target angle in degrees (catalog names)")
    p_verify.add_argument("--degree", type=_parse_degree, default=None,
                          help=f"series truncation degree, 1..{MAX_DEGREE}")
    p_verify.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="write an infidelity sweep as CSV")
    p_sweep.add_argument("sequence", help="catalog name or document path")
    p_sweep.add_argument("--model", choices=list(MODEL_KINDS), default=None)
    p_sweep.add_argument("--theta", type=_theta, default=180.0)
    p_sweep.add_argument("--grid", type=_parse_grid, default=None, help="min:max:points, geometric")
    p_sweep.add_argument("--out", default=None, help="output path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="compare third-order error magnitudes over angle")
    p_cmp.add_argument("--variants", nargs="+", required=True, help="two or more catalog names")
    p_cmp.add_argument("--theta-range", type=_theta_range, default=(10.0, 180.0, 86),
                       help="min:max:points in degrees")
    p_cmp.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
