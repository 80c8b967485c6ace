"""Command line interface: documents, exit codes, CSV output."""

import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

from compulse import ErrorModel, Pulse, compose, residual, series
from compulse.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_UNSOLVABLE,
    EXIT_UNWRITABLE,
    EXIT_USAGE,
    MAX_POINTS,
    DocumentError,
    build_document,
    document_to_sequence,
    main,
    parse_document,
    serialize_document,
)
from compulse.sequences import PulseSequence, build, shift_phases
from compulse.verify import infidelity_grid

from conftest import maxdiff

PI = math.pi
SRC = Path(__file__).resolve().parents[1] / "src"


def run_main(*argv):
    return main(list(argv))


class TestDocuments:
    def test_round_trip_exact(self):
        for name in ("bb1", "corpse", "sk2", "or-second-xz", "simultaneous"):
            doc = build_document(build(name, PI))
            assert parse_document(serialize_document(doc)) == doc

    def test_document_fields(self):
        doc = build_document(build("bb1", PI / 2))
        assert doc.schema_version == 1
        assert doc.convention == "chronological"
        assert doc.error_model == "ple"
        assert doc.target_theta_deg == pytest.approx(90.0)
        assert len(doc.pulses) == 4

    def test_document_to_sequence_matches_propagator(self):
        seq = build("sk2", PI)
        doc = build_document(seq)
        back = document_to_sequence(parse_document(serialize_document(doc)))
        m = ErrorModel.pulse_length(0.05)
        assert maxdiff(compose(seq.pulses, m), compose(back.pulses, m)) < 1e-9

    def test_degree_round_trip_precision(self):
        seq = build("bb1", PI)
        doc = build_document(seq)
        back = document_to_sequence(doc)
        for orig, rec in zip(seq.pulses, back.pulses):
            assert abs(math.degrees(orig.phase) - math.degrees(rec.phase)) < 1e-9

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda d: d.pop("pulses"),
            lambda d: d.update(schema_version=99),
            lambda d: d.update(convention="reversed"),
            lambda d: d.update(error_model="xyz"),
            lambda d: d.update(pulses=[]),
            lambda d: d.update(pulses=[{"angle_deg": 1.0}]),
            lambda d: d.update(schema_version=True),  # True == 1, but not schema 1
            lambda d: d.update(schema_version=1.0),
        ],
    )
    def test_malformed_documents_rejected(self, mutation):
        doc = json.loads(serialize_document(build_document(build("bb1", PI))))
        mutation(doc)
        with pytest.raises(DocumentError):
            parse_document(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(DocumentError):
            parse_document("{not json")


class TestNegativeAngleRefusal:
    """Off-resonance models refuse a negative-angle pulse however the sequence
    holding it was made: phase shifts and documents keep the angle's sign."""

    SEQ = PulseSequence("negative", -PI / 2, (Pulse(-PI / 2, 0.3),), target_phi=0.3)
    MADE = {
        "built": lambda seq: seq,
        "shift_phases": lambda seq: shift_phases(seq, 0.7),
        "document": lambda seq: document_to_sequence(parse_document(serialize_document(build_document(seq)))),
    }

    @pytest.mark.parametrize("made", MADE)
    @pytest.mark.parametrize("kind", ["ore", "sim"])
    def test_refused_off_resonance(self, made, kind):
        seq = self.MADE[made](self.SEQ)
        assert seq.pulses[0].angle == pytest.approx(-PI / 2)
        model = ErrorModel(kind, epsilon=0.0 if kind == "ore" else 0.01, f=0.02)
        match = "nonnegative angles only"
        with pytest.raises(ValueError, match=match):
            compose(seq.pulses, model)
        with pytest.raises(ValueError, match=match):
            infidelity_grid(seq.pulses, kind, model.epsilon, model.f, seq.target)
        with pytest.raises(ValueError, match=match):
            residual(seq.pulses, seq.target, kind, 3)
        compose(seq.pulses, ErrorModel.pulse_length(0.01))  # fine


class TestSynth:
    def test_bb1_90(self, capsys):
        assert run_main("synth", "bb1", "--theta", "90") == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["pulses"]) == 4
        assert doc["metadata"]["phi_a"] == pytest.approx(97.1808, abs=1e-3)

    def test_corpse_180_angles(self, capsys):
        assert run_main("synth", "corpse", "--theta", "180") == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert [p["angle_deg"] for p in doc["pulses"]] == pytest.approx([420.0, 300.0, 60.0])

    def test_sk3_metadata(self, capsys):
        assert run_main("synth", "sk3") == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["pulses"]) == 24
        assert "phi3" in doc["metadata"] and "delta" in doc["metadata"]

    def test_unknown_name(self, capsys):
        assert run_main("synth", "nosuch") == EXIT_USAGE

    def test_unsolvable_theta(self, capsys):
        assert run_main("synth", "sk3", "--theta", "90") == EXIT_UNSOLVABLE
        assert run_main("synth", "bb1", "--theta", "900") == EXIT_UNSOLVABLE

    @pytest.mark.parametrize("theta", ["nan", "inf"])
    def test_non_finite_theta(self, theta, capsys):
        for name in ("simple", "short-corpse"):
            with pytest.raises(SystemExit) as err:
                run_main("synth", name, "--theta", theta)
            assert err.value.code == EXIT_USAGE
            assert "finite" in capsys.readouterr().err

    def test_write_to_file(self, tmp_path, capsys):
        out = tmp_path / "seq.json"
        assert run_main("synth", "bb1", "--out", str(out)) == EXIT_OK
        doc = parse_document(out.read_text())
        assert doc.name == "bb1"


class TestVerify:
    def test_bb1_order_three(self, capsys):
        assert run_main("verify", "bb1", "--model", "ple", "--expect-order", "3") == EXIT_OK
        out = capsys.readouterr().out
        assert "series order:    3" in out
        assert "OK" in out

    def test_simple_wrong_expectation(self, capsys):
        assert run_main("verify", "simple", "--model", "ore", "--expect-order", "2") == EXIT_MISMATCH

    def test_or_second_xz(self, capsys):
        assert run_main("verify", "or-second-xz", "--model", "ore", "--expect-order", "3") == EXIT_OK

    def test_from_file(self, tmp_path, capsys):
        out = tmp_path / "seq.json"
        assert run_main("synth", "bb1", "--out", str(out)) == EXIT_OK
        assert run_main("verify", str(out), "--expect-order", "3") == EXIT_OK

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run_main("verify", str(bad), "--expect-order", "1") == EXIT_USAGE

    def test_not_utf8_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x00bad")
        assert run_main("verify", str(bad), "--order", "1") == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {str(bad)!r} is not UTF-8 text\n"

    def test_missing_file(self, capsys):
        assert run_main("verify", "/no/such/file.json", "--expect-order", "1") == EXIT_USAGE

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
    def test_schema_version_must_be_the_integer(self, version, tmp_path, capsys):
        doc = json.loads(serialize_document(build_document(build("bb1", PI))))
        doc["schema_version"] = version
        bad = tmp_path / "bad_schema.json"
        bad.write_text(json.dumps(doc))
        assert run_main("verify", str(bad), "--expect-order", "3") == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unsupported schema_version {version!r}\n"

    def test_default_degree_is_read_from_series(self, monkeypatch, capsys):
        monkeypatch.setattr(series, "DEFAULT_DEGREE", 2)
        assert run_main("verify", "bb1", "--order", "3") == EXIT_MISMATCH
        assert "series order:    > 2" in capsys.readouterr().out

    def test_inconsistent_target_rejected(self, tmp_path, capsys):
        # document whose declared target does not match its pulses
        doc = json.loads(serialize_document(build_document(build("bb1", PI))))
        doc["target_theta_deg"] = 30.0
        bad = tmp_path / "bad_target.json"
        bad.write_text(json.dumps(doc))
        assert run_main("verify", str(bad), "--expect-order", "3") == EXIT_USAGE

    @pytest.mark.parametrize("degree", ["0", "17"])
    def test_degree_out_of_range(self, degree, capsys):
        with pytest.raises(SystemExit) as err:
            run_main("verify", "bb1", "--expect-order", "3", "--degree", degree)
        assert err.value.code == EXIT_USAGE
        assert "1..16" in capsys.readouterr().err

    def test_top_degree_accepted(self, capsys):
        assert run_main("verify", "sk3", "--order", "4", "--degree", "16") == EXIT_OK
        assert "series order:    4" in capsys.readouterr().out

    def test_huge_theta_rejected(self, capsys):
        # (theta/2)^2 overflows, so the series has no finite coefficients
        assert run_main("verify", "simple", "--theta", "1e308", "--order", "1") == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, theta", [("bb1", "0"), ("sk3", "90")])
    def test_unsolvable_theta(self, name, theta, capsys):
        # the catalog refuses the angle, as for synth
        assert run_main("verify", name, "--order", "3", "--theta", theta) == EXIT_UNSOLVABLE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_sim_model_needs_axis(self, capsys):
        assert run_main("verify", "simultaneous", "--expect-order", "3") == EXIT_USAGE

    def test_order_alias_and_json_report(self, capsys):
        assert run_main("verify", "bb1", "--order", "3", "--json") == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["series_order"] == 3
        assert report["numeric_order"] == 3
        assert report["match"] is True
        assert run_main("verify", "bb1", "--order", "2", "--json") == EXIT_MISMATCH


class TestSweep:
    def test_bb1_point_value(self, capsys):
        assert run_main("sweep", "bb1", "--model", "ple", "--grid", "0.1:0.1:1") == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "error_value,infidelity"
        x, y = lines[1].split(",")
        assert float(x) == pytest.approx(0.1)
        assert float(y) == pytest.approx(5 * PI**6 / 1024 * 0.1**6, rel=0.1)

    def test_zero_point(self, capsys):
        assert run_main("sweep", "bb1", "--model", "ple", "--grid", "0:0:1") == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert float(lines[1].split(",")[1]) <= 1e-14

    def test_two_d_row_count(self, capsys):
        assert run_main("sweep", "simultaneous", "--grid", "0.01:0.1:3") == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "epsilon,f,infidelity"
        assert len(lines) == 1 + 3 * 3

    def test_default_grid_rows(self, capsys):
        assert run_main("sweep", "simple", "--model", "ple") == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 25

    @pytest.mark.parametrize(
        "argv",
        [
            ("synth", "bb1", "--out", "/nonexistent-dir/x.json"),
            ("sweep", "bb1", "--model", "ple", "--out", "/nonexistent-dir/x.csv"),
        ],
        ids=["synth", "sweep"],
    )
    def test_unwritable_output(self, argv, capsys):
        assert run_main(*argv) == EXIT_UNWRITABLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write output: ")
        assert captured.err.count("\n") == 1

    def test_write_csv_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_main("sweep", "corpse", "--grid", "1e-3:1e-1:5", "--out", str(out)) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "error_value,infidelity"
        assert len(lines) == 6
        values = [float(r.split(",")[1]) for r in lines[1:]]
        assert all(v >= 0.0 for v in values)
        assert values[-1] > values[0]

    def test_bad_grid(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_main("sweep", "bb1", "--grid", "1:2")
        assert err.value.code == EXIT_USAGE

    @pytest.mark.parametrize("model", ["ore", "sim"])
    def test_negative_angle_pulse_off_resonance(self, model, capsys):
        # a negative target angle gives a negative-angle pulse, which off-resonance models refuse
        assert run_main("sweep", "simple", "--theta", "-90", "--model", model) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("model", ["ore", "sim"])
    def test_negative_angle_document_off_resonance(self, model, tmp_path, capsys):
        doc = tmp_path / "negative.json"
        assert run_main("synth", "simple", "--theta", "-90", "--out", str(doc)) == EXIT_OK
        assert json.loads(doc.read_text())["pulses"] == [{"angle_deg": -90.0, "phase_deg": 0.0}]
        capsys.readouterr()
        assert run_main("sweep", str(doc), "--model", model) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("name, theta", [("bb1", "0"), ("sk3", "90")])
    def test_unsolvable_theta(self, name, theta, capsys):
        assert run_main("sweep", name, "--theta", theta) == EXIT_UNSOLVABLE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_non_finite_grid_end(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_main("sweep", "bb1", "--model", "ple", "--grid", "nan:1e-1:5")
        assert err.value.code == EXIT_USAGE
        assert "grid must be" in capsys.readouterr().err

    @pytest.mark.parametrize("points", [MAX_POINTS + 1, 10**13])
    def test_oversized_grid_refused(self, points, capsys):
        # refused while the option is parsed: no grid is allocated
        with pytest.raises(SystemExit) as err:
            run_main("sweep", "bb1", "--model", "ple", "--grid", f"1e-4:1e-1:{points}")
        assert err.value.code == EXIT_USAGE
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"grid must have at most {MAX_POINTS} points" in errors[0]

    @pytest.mark.parametrize("argv", [("simultaneous",), ("bb1", "--model", "sim")], ids=["design", "model"])
    def test_oversized_square_grid_refused(self, argv, capsys):
        # the n x n grid under both errors: n^2 points, one past the limit's square root
        n = math.isqrt(MAX_POINTS) + 1
        assert run_main("sweep", *argv, "--grid", f"1e-3:1e-1:{n}") == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: a sweep under both errors composes an n x n grid, so n^2 must be at most "
                                f"{MAX_POINTS}, got n = {n}\n")


class TestCompare:
    def test_crossover_reported(self, capsys):
        assert (
            run_main("compare", "--variants", "bb1", "sk2rot", "--theta-range", "150:180:7")
            == EXIT_OK
        )
        out = capsys.readouterr().out
        assert out.startswith("theta_deg,bb1,sk2rot")
        assert "crossover of bb1 vs sk2rot at 168" in out

    def test_identical_variants_flagged(self, capsys):
        assert (
            run_main("compare", "--variants", "bb1,bb1", "--theta-range", "90:180:4")
            == EXIT_OK
        )
        assert "no crossover" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ["10:180:-3", "10:180:0"])
    def test_bad_theta_range(self, spec, capsys):
        with pytest.raises(SystemExit) as err:
            run_main("compare", "--variants", "bb1", "sk2rot", "--theta-range", spec)
        assert err.value.code == EXIT_USAGE
        assert "theta range must be" in capsys.readouterr().err

    @pytest.mark.parametrize("points", [MAX_POINTS + 1, 10**13])
    def test_oversized_theta_range_refused(self, points, capsys):
        with pytest.raises(SystemExit) as err:
            run_main("compare", "--variants", "bb1", "sk2rot", "--theta-range", f"10:180:{points}")
        assert err.value.code == EXIT_USAGE
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"theta range must have at most {MAX_POINTS} points" in errors[0]

    def test_720_degree_identity_flagged(self, capsys):
        # sk2 at 720 degrees is an exact identity: no crossover, and no error
        assert (
            run_main("compare", "--variants", "bb1", "sk2", "--theta-range", "700:720:3")
            == EXIT_OK
        )
        assert "# no crossover of bb1 vs sk2 in range (flagged)" in capsys.readouterr().out

    def test_uncorrected_variant_refused_in_degrees(self, capsys):
        # sk1 is first-order only; the refusal names the first angle of the
        # default 10-180 degree range in both units
        assert run_main("compare", "--variants", "sk1", "bb1") == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: sk1 is not second-order correct at theta = "
                                "0.17453292519943295 rad (10 degrees)\n")

    def test_single_variant_rejected(self, capsys):
        assert run_main("compare", "--variants", "bb1") == EXIT_USAGE

    def test_unknown_variant(self, capsys):
        assert run_main("compare", "--variants", "bb1", "nosuch") == EXIT_USAGE

    def test_ratio_recorded_for_direct_variant(self, capsys):
        # direct vs rotated second-order construction at 180 degrees: the
        # magnitudes are printed for inspection, no ranking is asserted
        assert (
            run_main("compare", "--variants", "bb1", "sk2", "--theta-range", "180:180:1")
            == EXIT_OK
        )
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        ratio = float(row[2]) / float(row[1])
        assert ratio > 1.0


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "compulse.cli", "synth", "bb1", "--theta", "90"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["name"] == "bb1"

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_closed_stdout_pipe(self, buffered):
        # the read end is closed before the interpreter has started, so the
        # report meets a closed pipe: exit 4 with one line, and no second
        # failure from the flush at interpreter exit
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "compulse.cli", "compare", "--variants", "bb1", "sk2rot",
             "--theta-range", "150:180:7"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == EXIT_UNWRITABLE
        assert err.startswith(b"error: cannot write output: ")
        assert err.count(b"\n") == 1


def _sweep_rows(stdout: str) -> list[tuple[str, float]]:
    """(error value as printed, infidelity) of every row of a 1-D sweep."""
    rows = [line.split(",") for line in stdout.splitlines()[1:]]
    return [(x, float(y)) for x, y in rows]


def _certified(argv, stdout: str):
    """What ``compulse ARGV...`` certifies in ``stdout``: orders and verdicts
    of ``verify``, the whole output of ``synth`` and ``compare``."""
    if argv[0] != "verify":
        return stdout
    if "--json" in argv:
        report = json.loads(stdout)
        return {k: v for k, v in report.items() if k not in ("loglog_slope", "leading_infidelity_coefficient")}
    # "numeric order:   3 (log-log slope 5.9964)" keeps its order, not its slope
    return [line.split(" (")[0] for line in stdout.splitlines() if " order:" in line]


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="x86 kernel settings")
class TestAcrossKernels:
    """The certified outputs of the README commands do not depend on the BLAS
    kernel or on numpy's SIMD level, and the sweep rows not on the BLAS kernel.

    Each setting runs the commands in fresh processes: OpenBLAS takes its
    kernel from ``OPENBLAS_CORETYPE``, and numpy leaves out the dispatch
    targets named in ``NPY_DISABLE_CPU_FEATURES``.  Exit codes, orders,
    OK/MISMATCH verdicts, ``synth`` documents, ``compare`` output and the
    stderr of refused commands must equal those of a run with neither
    variable set.  The README ``sweep bb1`` composes its rows column by
    column, with no BLAS call, so under either OpenBLAS kernel they must
    equal the default run's byte for byte.  numpy's SIMD levels round a
    complex product otherwise, so with numpy at AVX2 (``X86_V3``) and at its
    baseline (everything from ``X86_V3`` up disabled) the rows are compared
    within 16 n eps_mach in sqrt(infidelity), n the pulse count, twice the
    bound of ``TestMpmathReferee`` (measured at the baseline: 0.02 n
    eps_mach; at AVX2 no row moves on an AVX-512 host).  ``loglog_slope``
    is fitted without LAPACK (``verify._line_fit``), so under either
    OpenBLAS kernel the whole ``verify sk3 --json`` output must equal the
    default run's byte for byte; under numpy's SIMD settings its floats move
    with the infidelities they are fitted to, and only its orders and
    verdict are compared.  A setting whose CPU features the host lacks is
    skipped.  On a numpy or OpenBLAS build
    without run-time dispatch the variables do nothing, and the test then
    compares a build with itself.
    """

    SWEEP = ("sweep", "bb1", "--model", "ple", "--grid", "1e-4:1e-1:25")
    JSON = ("verify", "sk3", "--order", "4", "--json")

    COMMANDS = (
        ("synth", "bb1"),
        ("verify", "bb1", "--order", "3"),
        JSON,
        ("compare", "--variants", "bb1", "sk2rot", "--theta-range", "10:180:86"),
        SWEEP,
    )
    #: refused commands and their exit codes: an angle sk3 is not defined at, a
    #: negative-angle pulse off resonance, a series overflow, an uncorrected variant
    REFUSALS = (
        (("verify", "sk3", "--theta", "90", "--order", "4"), EXIT_UNSOLVABLE),
        (("sweep", "simple", "--theta", "-90", "--model", "ore"), EXIT_USAGE),
        (("verify", "simple", "--theta", "1e308", "--order", "1"), EXIT_USAGE),
        (("compare", "--variants", "sk1", "bb1"), EXIT_USAGE),
    )
    #: each setting and the CPU features it needs
    SETTINGS = {
        "openblas-haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, ("AVX2", "FMA3")),
        "openblas-sandybridge": ({"OPENBLAS_CORETYPE": "Sandybridge"}, ("AVX",)),
        "numpy-avx2": ({"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
                       ("AVX512_SPR", "AVX512_ICL", "X86_V4", "X86_V3")),
        "numpy-baseline": ({"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"},
                           ("AVX512_SPR", "AVX512_ICL", "X86_V4", "X86_V3")),
    }
    #: the settings that change numpy's SIMD level, under which sweep rows move by rounding
    SIMD_SETTINGS = ("numpy-avx2", "numpy-baseline")

    @staticmethod
    def _run(setting):
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
        env.update(setting, PYTHONPATH=str(SRC))
        out = []
        for argv in TestAcrossKernels.COMMANDS + tuple(argv for argv, _ in TestAcrossKernels.REFUSALS):
            proc = subprocess.run([sys.executable, "-m", "compulse.cli", *argv], env=env,
                                  capture_output=True, text=True)
            refused = proc.returncode != EXIT_OK
            out.append((argv, proc.returncode, proc.stderr if refused else _certified(argv, proc.stdout),
                        proc.stdout))
        return out

    @pytest.fixture(scope="class")
    def default(self):
        runs = self._run({})
        expected = [EXIT_OK] * len(self.COMMANDS) + [code for _, code in self.REFUSALS]
        assert [run[1] for run in runs] == expected
        assert all(runs[i][2].startswith("error: ") for i in range(len(self.COMMANDS), len(runs)))
        return runs

    @pytest.mark.parametrize("name", SETTINGS)
    def test_certified_outputs_match_default(self, name, default):
        setting, features = self.SETTINGS[name]
        if not all(__cpu_features__.get(feature) for feature in features):
            pytest.skip(f"the host lacks one of {features}")
        runs = self._run(setting)
        if name in self.SIMD_SETTINGS:
            at = self.COMMANDS.index(self.SWEEP)
            assert runs[at][:2] == default[at][:2]
            got, want = _sweep_rows(runs[at][2]), _sweep_rows(default[at][2])
            assert [x for x, _ in got] == [x for x, _ in want]
            bound = 16 * len(build("bb1", PI).pulses) * sys.float_info.epsilon
            assert max(abs(math.sqrt(y) - math.sqrt(w)) for (_, y), (_, w) in zip(got, want)) <= bound
            runs[at] = default[at]
        else:
            at = self.COMMANDS.index(self.JSON)
            assert runs[at][3] == default[at][3]
        assert [run[:3] for run in runs] == [run[:3] for run in default]
