"""Command line front end: synthesize, verify, sweep and compare sequences.

Angles cross this boundary in degrees; everything inside the library is
radians.  Sequence documents are JSON with a fixed schema and chronological
pulse order; sweeps are plain CSV.

Exit codes: 0 success, 1 verification mismatch, 2 bad usage or malformed
input, 3 unsolvable target angle, 4 unwritable output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import series as _series
from . import verify as _verify
from .sequences import CATALOG, PulseSequence, build
from .su2 import KIND_AXIS, MODEL_KINDS, SIMULTANEOUS, Pulse

SCHEMA_VERSION = 1
_INT_METADATA = ("na", "nb", "nc")
#: largest accepted ``verify --degree``; a series holds (N+1)^2 coefficients
MAX_DEGREE = 16

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_UNSOLVABLE = 3
EXIT_UNWRITABLE = 4


class DocumentError(ValueError):
    """A sequence document is malformed or violates the schema."""


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
    if raw["schema_version"] != SCHEMA_VERSION:
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


def _load_sequence(spec: str, theta_deg: float) -> PulseSequence:
    """A catalog name or a path to a sequence document."""
    if spec in CATALOG:
        try:
            return build(spec, math.radians(theta_deg))
        except ValueError as exc:
            raise DocumentError(str(exc)) from exc
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError:
        raise DocumentError(f"{spec!r} is neither a catalog name nor a readable file") from None
    return document_to_sequence(parse_document(text))


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
        finite = math.isfinite(lo) and math.isfinite(hi)
        if n < 1 or not finite or lo < 0 or hi < lo or (lo == 0.0 and hi > lo):
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must be min:max:points with finite 0 <= min <= max (geometric needs min > 0), got {spec!r}"
        ) from None
    if lo == hi:
        return np.full(n, lo)
    return np.geomspace(lo, hi, n)


def cmd_synth(args) -> int:
    if args.name not in CATALOG:
        print(f"error: unknown sequence name {args.name!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        seq = build(args.name, math.radians(args.theta))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSOLVABLE
    doc = build_document(seq)
    try:
        _write_text(args.out, serialize_document(doc))
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        seq = _load_sequence(args.sequence, args.theta)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    model_kind = args.model or seq.model_kind
    axis = KIND_AXIS.get(model_kind)
    if axis is None:
        print("error: verify needs a single error axis; use --model ple or --model ore", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = _series.leading_error(
            _series.residual(seq.pulses, seq.target, model_kind, args.degree)
        )
    except ValueError as exc:
        # declared target does not match the pulse list (or similar defect)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sweep = _verify.estimate_order(seq, axis)
    series_order = report.order
    numeric_order = sweep.order
    coeff = report.infidelity_coefficient
    ok = series_order == args.expect_order and numeric_order == args.expect_order
    if args.json:
        payload = {
            "sequence": seq.name,
            "target_theta_deg": math.degrees(seq.target_theta),
            "error_model": model_kind,
            "series_order": series_order,
            "numeric_order": numeric_order,
            "loglog_slope": sweep.slope,
            "leading_infidelity_coefficient": coeff,
            "infidelity_degree": report.infidelity_degree,
            "expected_order": args.expect_order,
            "match": ok,
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK if ok else EXIT_MISMATCH
    print(f"sequence:        {seq.name} (target {math.degrees(seq.target_theta):g} deg)")
    print(f"error model:     {model_kind}")
    print(f"series order:    {series_order if series_order is not None else f'> {args.degree}'}")
    if sweep.beyond_resolution:
        print("numeric order:   beyond numeric resolution (exact to rounding)")
    elif sweep.slope is None:
        print("numeric order:   n/a (too few clean sweep points)")
    else:
        shown = numeric_order if numeric_order is not None else "ambiguous"
        print(f"numeric order:   {shown} (log-log slope {sweep.slope:.4f})")
    if coeff is not None:
        print(f"leading infidelity: {coeff:.6g} * x^{report.infidelity_degree}")
    print(f"expected order:  {args.expect_order} -> {'OK' if ok else 'MISMATCH'}")
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_sweep(args) -> int:
    try:
        seq = _load_sequence(args.sequence, args.theta)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    model_kind = args.model or seq.model_kind
    try:
        if model_kind == SIMULTANEOUS:
            grid = args.grid if args.grid is not None else _verify.geometric_grid()
            ys = _verify.infidelity_grid(seq.pulses, model_kind, grid[:, None], grid[None, :], seq.target)
        else:
            grid, ys = _verify.axis_sweep(seq, KIND_AXIS[model_kind], args.grid)
    except ValueError as exc:
        # e.g. a flipped (negative-angle) pulse under an off-resonance model
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if model_kind == SIMULTANEOUS:
        lines = ["epsilon,f,infidelity"]
        for e, row in zip(grid, ys):
            lines.extend(f"{e:.12g},{f:.12g},{y:.12g}" for f, y in zip(grid, row))
    else:
        lines = ["error_value,infidelity"]
        lines.extend(f"{x:.12g},{y:.12g}" for x, y in zip(grid, ys))
    try:
        _write_text(args.out, "\n".join(lines) + "\n")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    return EXIT_OK


def cmd_compare(args) -> int:
    names = []
    for chunk in args.variants:
        names.extend(n for n in chunk.split(",") if n)
    if len(names) < 2:
        print("error: need at least two variants to compare", file=sys.stderr)
        return EXIT_USAGE
    for n in names:
        if n not in CATALOG:
            print(f"error: unknown sequence name {n!r}", file=sys.stderr)
            return EXIT_USAGE
    lo, hi, npts = args.theta_range
    thetas = np.radians(np.linspace(lo, hi, npts))
    try:
        result = _verify.crossover_scan(names, thetas)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    header = "theta_deg," + ",".join(names)
    print(header)
    for i, t in enumerate(result.thetas):
        row = [f"{math.degrees(t):.6g}"] + [f"{result.magnitudes[n][i]:.8g}" for n in names]
        print(",".join(row))
    if result.crossover_theta is not None:
        print(f"# crossover of {names[0]} vs {names[1]} at "
              f"{math.degrees(result.crossover_theta):.3f} deg")
    else:
        print(f"# no crossover of {names[0]} vs {names[1]} in range (flagged)")
    return EXIT_OK


def _parse_degree(spec: str) -> int:
    try:
        degree = int(spec)
        if not 1 <= degree <= MAX_DEGREE:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"degree must be an integer in 1..{MAX_DEGREE}, got {spec!r}"
        ) from None
    return degree


def _theta(spec: str) -> float:
    try:
        theta = float(spec)
        if not math.isfinite(theta):
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"theta must be a finite angle in degrees, got {spec!r}"
        ) from None
    return theta


def _theta_range(spec: str) -> tuple[float, float, int]:
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
        if n < 1 or not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"theta range must be min:max:points in degrees, with finite ends and points >= 1, got {spec!r}"
        ) from None
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
    p_verify.add_argument("--degree", type=_parse_degree, default=_series.DEFAULT_DEGREE,
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
