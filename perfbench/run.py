#!/usr/bin/env python3
"""Benchmark of compulse: certificates, sweeps, angle scans and CLI commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, 20 s each

NAME is one of certify-catalog, sweep-grid, angle-scan, cli-session, or
all.  One run does one untimed warm-up round, then whole rounds of
operations for S seconds with nine set-ups in fresh interpreters spread
between them (``setup_s``, not counted in the S seconds), then checks
every output against independent references.  With ``--trace 0`` it
reports the end-to-end metrics, latencies in units of a reference
computation timed between every two operations (see ``reference_kernel``);
with ``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics.  The last line of standard output is one JSON object;
result and trace files go to ``perfbench/out/``.  See perfbench/README.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("certify-catalog", "sweep-grid", "angle-scan", "cli-session")
SETUP_PROBES = 9  # fresh interpreters per run; runs shorter than 10 s use one
EXIT_NO_PROGRAM = 2
EXIT_INCORRECT = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(workload: str, seed: int) -> None:
    """The set-up a user pays, in this fresh interpreter; prints its parts."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import compulse  # noqa: F401
    t2 = time.perf_counter()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    WORKLOADS[workload](seed).setup()
    t3 = time.perf_counter()
    print(json.dumps({"numpy_import_s": t1 - t0, "compulse_import_s": t2 - t1, "setup_work_s": t3 - t2}))


class SetupProbes:
    """Fresh set-ups spread evenly over the timed phase, and the median of
    their wall times and parts.

    The host's speed changes from one second to the next, so probes spread
    over the run agree from run to run where probes made back to back do
    not.  Every module is imported, and its bytecode cached, before the first
    probe.
    """

    def __init__(self, workload: str, seed: int, count: int, seconds: float):
        self.argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                     "--setup-probe"]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.count = count
        self.interval = seconds / count
        self.first = None
        self.walls, self.parts = [], []

    def step(self) -> None:
        """Make the next probe if it is due: probe ``i`` is due once ``i``
        intervals of the timed phase, probes not counted, have passed."""
        now = time.perf_counter()
        if self.first is None:
            self.first = now
        due = len(self.walls) * self.interval
        if len(self.walls) < self.count and now - self.first - sum(self.walls) >= due:
            self.probe()

    def probe(self) -> None:
        import subprocess

        t0 = time.perf_counter()
        proc = subprocess.run(self.argv, env=self.env, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        self.walls.append(wall)
        self.parts.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    def result(self):
        """``setup_s`` and the median of each part, after the remaining probes."""
        import statistics

        while len(self.walls) < self.count:
            self.probe()
        medians = {k: statistics.median(p[k] for p in self.parts) for k in self.parts[0]}
        return statistics.median(self.walls), medians


def load_program():
    """Import compulse from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "compulse" / "__init__.py").is_file():
        print(f"error: no compulse sources under {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import compulse

    if Path(compulse.__file__).resolve().parent != (SRC / "compulse").resolve():
        print(f"error: compulse imported from {compulse.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    return compulse


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def reference_kernel() -> float:
    """Run a fixed computation that shares no code with compulse; returns its
    wall time in seconds.

    The host's speed drifts by a third within minutes and flips between a
    fast and a slow state from one second to the next, for the benchmark and
    this kernel alike.  So the kernel runs between every two operations, and
    each operation's latency is divided by the mean time of the two kernels
    around it ("ref" units).  The kernel mixes what compulse spends its
    time on: interpreted Python, numpy calls on 9x9 complex arrays (the
    series engine) and long double ufuncs (the verify route).
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 400).astype(np.longdouble)
    t0 = time.perf_counter()
    s = 0
    for i in range(3000):
        s += i * i % 7
    a = np.ones((9, 9), complex)
    b = a.copy()
    for _ in range(30):
        c = np.zeros((9, 9), complex)
        for j in range(3):
            c[j:, :] += a[: 9 - j, :] * b[j, 0]
        a = c * 0.1 + b
    for _ in range(10):
        np.cos(x) * np.sin(x) + np.exp(-x)
    return time.perf_counter() - t0


class Runner:
    """Runs one workload's rounds and keeps every operation's record."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.records = []
        self.mode_time = {False: 0.0, True: 0.0}
        self.mode_ops = {False: 0, True: 0}

    def run_round(self, r: int, traced: bool, timed: bool) -> None:
        from workloads import failed

        ops = self.workload.round(r)
        if traced:
            self.tracer.install()
            self.workload.traced = True
        try:
            ref_before = reference_kernel()
            for i, (kind, inputs, call) in enumerate(ops):
                first_span = len(self.tracer.spans) if traced else 0
                t0 = time.perf_counter()
                error = None
                try:
                    output = call()
                except Exception as exc:  # an operation that raises counts as failed
                    output, error = None, f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t0
                ref_after = reference_kernel()
                self.records.append({
                    "round": r, "index": i, "kind": kind, "inputs": inputs, "output": output,
                    "latency": latency, "ref": (ref_before + ref_after) / 2,
                    "timed": timed, "traced": traced, "error": error,
                    "failed": error is not None or failed(kind, output),
                    "spans": (first_span, len(self.tracer.spans)) if traced else None,
                })
                if timed:
                    self.mode_time[traced] += latency
                    self.mode_ops[traced] += 1
                ref_before = ref_after
        finally:
            if traced:
                self.tracer.uninstall()
                self.workload.traced = False

    def run(self, seconds: float, trace: bool, between_rounds) -> None:
        """Warm up, then time whole rounds for ``seconds``, calling
        ``between_rounds`` after each; the time it takes is not counted."""
        self.run_round(0, traced=False, timed=False)
        deadline = time.perf_counter() + seconds
        r = 1
        while True:
            self.run_round(r, traced=trace and r % 2 == 0, timed=True)
            r += 1
            t0 = time.perf_counter()
            between_rounds()
            deadline += time.perf_counter() - t0
            if time.perf_counter() >= deadline and (not trace or r > 2):
                break


def check_outputs(name, runner, seed, compulse):
    """Run the workload's correctness checks; returns the failure messages."""
    import checks
    from workloads import KNOWN_FAULT_KINDS

    ck = checks.Checker(seed, compulse.verify.FIT_WINDOW)
    done = [rec for rec in runner.records if not rec["failed"]]
    for rec in runner.records:
        if rec["failed"] and rec["kind"] not in KNOWN_FAULT_KINDS:
            ck.fail(f"{rec['kind']} round {rec['round']} failed: {rec['error'] or rec['output']}")
    if name == "certify-catalog":
        checks.check_certify(ck, done)
    elif name == "sweep-grid":
        checks.check_sweep(ck, done, runner.workload.seqs)
    elif name == "angle-scan":
        checks.check_scan(ck, done, compulse.sequences.build)
    else:
        checks.check_cli(ck, done, runner.workload.workdir)
    return ck.failures


def timed_records(runner):
    return [rec for rec in runner.records if rec["timed"] and not rec["traced"]]


def wall_figures(runner) -> dict:
    """The same timings in wall-clock units, for the report only: they move
    with the host's speed (see ``reference_kernel``)."""
    import statistics

    timed = timed_records(runner)
    lat = [rec["latency"] for rec in timed]
    return {"ops_per_s": len(lat) / sum(lat), "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": percentile(lat, runner.workload.tail_percentile) * 1e3,
            "ref_kernel_ms": statistics.median(rec["ref"] for rec in timed) * 1e3}


def end_to_end_metrics(runner, setup_s, peak_rss_mb, floor):
    import statistics

    norm = [rec["latency"] / rec["ref"] for rec in timed_records(runner)]
    q = runner.workload.tail_percentile
    if len(norm) * (100 - q) / 100 < 10:
        print(f"warning: {len(norm)} operations leave fewer than ten beyond the p{q} tail", file=sys.stderr)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_mean_ref": {"value": statistics.fmean(norm), "unit": "ref"},
        "op_p50_ref": {"value": statistics.median(norm), "unit": "ref"},
        "op_tail_ref": {"value": percentile(norm, q), "unit": "ref"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "infidelity_floor": {"value": floor, "unit": "1"},
    }


def peak_rss(name: str) -> float:
    """Peak resident memory in MB: this process's, or the largest child's on
    cli-session (the set-up probes are children too, and smaller)."""
    import resource

    who = resource.RUSAGE_CHILDREN if name == "cli-session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_one(args) -> dict:
    compulse = load_program()

    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cls = WORKLOADS[args.workload]
    if args.workload == "cli-session":
        workload = cls(args.seed, workdir=OUT / f"cli-{os.getpid()}")
    else:
        workload = cls(args.seed)
    workload.setup()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    runner = Runner(workload, tracer)
    probes = SetupProbes(args.workload, args.seed, SETUP_PROBES if args.seconds >= 10 else 1, args.seconds)
    try:
        runner.run(args.seconds, bool(args.trace), probes.step)
        setup_s, probe = probes.result()
        rss = peak_rss(args.workload)
        failures = check_outputs(args.workload, runner, args.seed, compulse)
        if args.trace:
            import layers

            metrics = layers.per_layer_metrics(runner, probe, compulse, OUT / f"trace-{tag}.jsonl")
        else:
            import checks

            floor = checks.infidelity_floor(compulse.sequences.build, compulse.verify.infidelity_ld)
            metrics = end_to_end_metrics(runner, setup_s, rss, floor)
    finally:
        if args.workload == "cli-session":
            import shutil

            shutil.rmtree(workload.workdir, ignore_errors=True)
    result = {
        "correct": not failures,
        "attempted": len(runner.records),
        "failed": sum(rec["failed"] for rec in runner.records),
        "metrics": metrics,
    }
    for msg in failures[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    wall = wall_figures(runner)
    print(f"{args.workload} in wall-clock units: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()),
          file=sys.stderr)
    record = dict(result, wall=wall, failures=failures)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    return result


def report(name: str, result: dict) -> None:
    print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"checks {'passed' if result['correct'] else 'FAILED'}")
    for key, m in result["metrics"].items():
        print(f"   {key:<44} {m['value']:>14.6g} {m['unit']}")


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    import subprocess

    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        report(name, results[name])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else EXIT_INCORRECT


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        load_program()
        return run_all(args)
    result = run_one(args)
    report(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
