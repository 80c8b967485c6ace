"""Per-layer metrics of a traced run.

Spans come from the traced rounds of the timed phase (on ``cli-session``,
from the command processes' span files), plus two probes made after it:
three uncached third-order solves, and ``su2.compose`` of four sequences,
which no workload calls today.  "Per operation" divides by the traced
operations; shares divide by the traced operations' summed latency.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

from tracing import MODULES, Tracer, descendants, self_times

CLI_SUBCOMMANDS = ("synth", "verify", "sweep", "compare")

#: (name, unit, better) of every per-layer metric, in print order
METRICS = (
    ("series.residual.self_ms", "ms/op", "lower"),
    ("series.MatrixSeries.mul.calls", "calls/op", "lower"),
    ("series.MatrixSeries.mul.self_ms", "ms/op", "lower"),
    ("series.propagator_series.calls", "calls/op", "lower"),
    ("series.propagator_series.self_ms", "ms/op", "lower"),
    ("series.propagator_series.distinct_ratio", "ratio", "higher"),
    ("series.leading_error.self_ms", "ms/op", "lower"),
    ("series.fidelity_series.self_ms", "ms/op", "lower"),
    ("verify.infidelity_ld.calls", "calls/op", "lower"),
    ("verify.infidelity_ld.us_per_point", "us", "lower"),
    ("verify.estimate_order.self_ms", "ms/op", "lower"),
    ("verify.fit_leading_coefficient.self_ms", "ms/op", "lower"),
    ("verify.fidelity_surface.self_ms", "ms/op", "lower"),
    ("verify.fit_points_ratio", "ratio", "higher"),
    ("verify.crossover_scan.self_ms", "ms/op", "lower"),
    ("verify.crossover_scan.bisection_share", "ratio", "lower"),
    ("sequences.build.calls", "calls/op", "lower"),
    ("sequences.build.self_ms", "ms/op", "lower"),
    ("sequences.solve_third_order.uncached_ms", "ms", "lower"),
    ("sequences.solve_third_order.residual_calls", "count", "lower"),
    ("su2.propagator.us", "us", "lower"),
    ("su2.compose.us_per_pulse", "us", "lower"),
    *((f"cli.main.{sub}.self_ms", "ms", "lower") for sub in CLI_SUBCOMMANDS),
    ("cli.parse_document.us", "us", "lower"),
    ("cli.serialize_document.us", "us", "lower"),
    ("process.numpy_import_s", "s", "lower"),
    ("process.compulse_import_s", "s", "lower"),
    *((f"share.{m}", "ratio", "lower") for m in MODULES),
    ("share.outside_spans", "ratio", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

#: clean window of fit_leading_coefficient, and its fallback when fewer
#: than three points fall inside (verify.fit_leading_coefficient)
COEFF_WINDOWS = ((1e-14, 1e-7), (1e-14, 1e-6))


def op_spans(runner) -> list[list]:
    """The spans of each traced operation, parents re-indexed per operation."""
    out = []
    for rec in runner.records:
        if not rec["traced"]:
            continue
        if isinstance(rec["output"], dict) and rec["output"].get("trace_file"):
            with open(rec["output"]["trace_file"], encoding="utf-8") as fh:
                out.append([[n, s, e, p, tuple(x) if isinstance(x, list) else x]
                            for n, s, e, p, x in json.load(fh)])
            continue
        a, b = rec["spans"]
        out.append([[n, s, e, p - a if p >= 0 else -1, x] for n, s, e, p, x in runner.tracer.spans[a:b]])
    return out


def _fit_counts(spans, i) -> tuple[int, int]:
    name, note = spans[i][0], spans[i][4]
    if name == "verify.estimate_order":
        return note
    values = [spans[j][4] for j in descendants(spans, i, "verify.infidelity_ld")]
    for lo, hi in COEFF_WINDOWS:
        inside = sum(lo <= v <= hi for v in values)
        if inside >= 3:
            break
    return inside, len(values)


def _probes(compulse):
    """Spans of three uncached third-order solves and of su2.compose."""
    tracer = Tracer()
    solve = compulse.sequences.solve_third_order
    seqs = [compulse.sequences.build(n, compulse.sequences.PI)
            for n in ("bb1", "sk3", "or-second-xz", "simultaneous")]
    models = [compulse.ErrorModel.pulse_length(1e-3), compulse.ErrorModel.off_resonance(1e-3),
              compulse.ErrorModel.simultaneous(1e-3, 1e-3)]
    tracer.install()
    try:
        for _ in range(3):
            solve.cache_clear()
            compulse.sequences.solve_third_order()
        for seq in seqs:
            for model in models:
                compulse.compose(seq.pulses, model)
    finally:
        tracer.uninstall()
    return tracer.spans


def per_layer_metrics(runner, probe, compulse, trace_path) -> dict:
    """Every metric of ``METRICS`` as ``{name: {"value", "unit"}}``."""
    ops = op_spans(runner)
    n_ops = max(len(ops), 1)
    calls, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
    sub_self = defaultdict(list)
    distinct = fit_in = fit_all = scan_res = scan_grid = 0
    for spans in ops:
        keys = set()
        for i, (rec, s) in enumerate(zip(spans, self_times(spans))):
            n = rec[0]
            calls[n] += 1
            total[n] += rec[2] - rec[1]
            own[n] += s
            if n == "series.propagator_series":
                keys.add(rec[4])
            elif n in ("verify.estimate_order", "verify.fit_leading_coefficient"):
                inside, evaluated = _fit_counts(spans, i)
                fit_in += inside
                fit_all += evaluated
            elif n == "verify.crossover_scan":
                scan_res += len(descendants(spans, i, "series.residual"))
                scan_grid += rec[4]
            elif n == "cli.main":
                sub_self[rec[4]].append(s)
        distinct += len(keys)

    probe_spans = _probes(compulse)
    solves = [i for i, rec in enumerate(probe_spans) if rec[0] == "sequences.solve_third_order"]
    su2 = defaultdict(list)
    for spans in ops + [probe_spans]:
        for rec in spans:
            su2[rec[0]].append(rec)
    props, composes = su2["su2.propagator"], su2["su2.compose"]

    def per_op(key):
        return own[key] * 1e3 / n_ops

    def mean_us(key):
        return total[key] * 1e6 / calls[key] if calls[key] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "series.residual.self_ms": per_op("series.residual"),
        "series.MatrixSeries.mul.calls": calls["series.MatrixSeries.mul"] / n_ops,
        "series.MatrixSeries.mul.self_ms": per_op("series.MatrixSeries.mul"),
        "series.propagator_series.calls": calls["series.propagator_series"] / n_ops,
        "series.propagator_series.self_ms": per_op("series.propagator_series"),
        "series.propagator_series.distinct_ratio": ratio(distinct, calls["series.propagator_series"]),
        "series.leading_error.self_ms": per_op("series.leading_error"),
        "series.fidelity_series.self_ms": per_op("series.fidelity_series"),
        "verify.infidelity_ld.calls": calls["verify.infidelity_ld"] / n_ops,
        "verify.infidelity_ld.us_per_point": mean_us("verify.infidelity_ld"),
        "verify.estimate_order.self_ms": per_op("verify.estimate_order"),
        "verify.fit_leading_coefficient.self_ms": per_op("verify.fit_leading_coefficient"),
        "verify.fidelity_surface.self_ms": per_op("verify.fidelity_surface"),
        "verify.fit_points_ratio": ratio(fit_in, fit_all),
        "verify.crossover_scan.self_ms": per_op("verify.crossover_scan"),
        "verify.crossover_scan.bisection_share": ratio(scan_res - scan_grid, scan_res),
        "sequences.build.calls": calls["sequences.build"] / n_ops,
        "sequences.build.self_ms": per_op("sequences.build"),
        "sequences.solve_third_order.uncached_ms":
            statistics.median((probe_spans[i][2] - probe_spans[i][1]) * 1e3 for i in solves),
        "sequences.solve_third_order.residual_calls":
            len(descendants(probe_spans, solves[-1], "series.residual")),
        "su2.propagator.us": sum(r[2] - r[1] for r in props) * 1e6 / len(props),
        "su2.compose.us_per_pulse": sum(r[2] - r[1] for r in composes) * 1e6 / sum(r[4] for r in composes),
        "cli.parse_document.us": mean_us("cli.parse_document"),
        "cli.serialize_document.us": mean_us("cli.serialize_document"),
        "process.numpy_import_s": probe["numpy_import_s"],
        "process.compulse_import_s": probe["compulse_import_s"],
    }
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.main.{sub}.self_ms"] = statistics.median(sub_self[sub]) * 1e3 if sub_self[sub] else 0.0
    busy = runner.mode_time[True]
    for module in MODULES:
        m[f"share.{module}"] = sum(v for k, v in own.items() if k.split(".")[0] == module) / busy
    m["share.outside_spans"] = 1.0 - sum(m[f"share.{module}"] for module in MODULES)
    rate = {mode: runner.mode_ops[mode] / runner.mode_time[mode] for mode in (False, True)}
    m["trace.overhead_pct"] = (rate[False] - rate[True]) / rate[False] * 100.0

    write_trace(trace_path, ops)
    units = {key: unit for key, unit, _ in METRICS}
    return {key: {"value": float(m[key]), "unit": units[key]} for key, _, _ in METRICS}


def write_trace(path, ops) -> None:
    """One JSON line per span: operation, name, start and end in us, parent."""
    t0 = min((spans[0][1] for spans in ops if spans), default=time.perf_counter())
    with open(path, "w", encoding="utf-8") as fh:
        for k, spans in enumerate(ops):
            for n, s, e, p, _ in spans:
                fh.write(json.dumps([k, n, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p]) + "\n")
