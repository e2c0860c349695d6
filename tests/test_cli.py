"""End-to-end CLI runs on the packaged toy mechanism."""
import re
import shutil
from dataclasses import fields

import numpy as np
import pytest

from conftest import FIXTURE_DIR, FORMAT_DOC, make_mechanism, make_species, mechgen
from expkin import cli
from expkin.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SOLVER, main
from expkin.integrator import StepRecord, integrate_mechanism
from expkin.mechio import read_csv, serialize_mechanism

SHORT_CFG = """\
mechanism toy3.mech
T0 1000.0
pressure 101325.0
Y F 0.1
Y B 0.9
t_final 0.2
atol 1e-8
rtol 1e-6
n_output_samples 50
"""

# A generated K = 12 network (n + p = 14 and 16, above M_INIT): its phi calls
# take the Krylov path. t_final ends before ignition, in 16 steps.
NETWORK_CFG = """\
mechanism net12.mech
T0 1000.0
pressure 101325.0
Y F0 0.1
Y B0 0.9
t_final 1e-5
atol 1e-8
rtol 1e-6
n_output_samples 50
"""


@pytest.fixture
def workdir(tmp_path):
    shutil.copy(FIXTURE_DIR / "toy3.mech", tmp_path / "toy3.mech")
    (tmp_path / "run.cfg").write_text(SHORT_CFG)
    return tmp_path


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_run_produces_outputs(self, workdir, capsys):
        rc = run_cli("run", "--config", str(workdir / "run.cfg"),
                     "--out", str(workdir / "out"))
        assert rc == EXIT_OK
        assert (workdir / "out" / "solution.csv").exists()
        assert (workdir / "out" / "steps.csv").exists()
        assert "completed" in capsys.readouterr().out

    def test_solution_contents(self, workdir):
        run_cli("run", "--config", str(workdir / "run.cfg"),
                "--out", str(workdir / "out"))
        header, rows = read_csv(workdir / "out" / "solution.csv")
        assert header == ["t", "T", "Y_F", "Y_X", "Y_B"]
        assert len(rows) == 50
        t = np.array([r[0] for r in rows])
        T = np.array([r[1] for r in rows])
        assert t[0] == 0.0 and t[-1] == pytest.approx(0.2)
        assert T[0] == pytest.approx(1000.0)
        assert T[-1] > T[0]  # the toy mixture heats up

    @pytest.mark.parametrize("case", ["toy3", "net12"])
    def test_steps_csv_schema(self, workdir, monkeypatch, case):
        if case == "net12":
            (workdir / "net12.mech").write_text(
                serialize_mechanism(mechgen.generate_mechanism(12, 0)))
            (workdir / "run.cfg").write_text(NETWORK_CFG)
        outputs = []

        def capture(*args, **kwargs):
            outputs.append(integrate_mechanism(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(cli, "integrate_mechanism", capture)
        run_cli("run", "--config", str(workdir / "run.cfg"),
                "--out", str(workdir / "out"))
        header, rows = read_csv(workdir / "out" / "steps.csv")
        assert header == ["t", "h", "accepted", "err_est", "krylov_dim",
                          "substeps", "matvecs", "kiops_calls", "cpu_ns"]
        assert rows
        accepted = [r for r in rows if r[2] == 1.0]
        assert accepted
        # Completed attempts always use exactly two Krylov evaluations.
        kiops_calls = header.index("kiops_calls")
        assert all(r[kiops_calls] == 2.0 for r in accepted)
        # One row per solver record, and the matvecs column is theirs.
        out, = outputs
        assert len(rows) == len(out.records)
        matvecs = header.index("matvecs")
        assert sum(r[matvecs] for r in rows) == sum(r.matvecs for r in out.records)
        if case == "toy3":
            # n + p = 5 and 7 (at most M_INIT): every phi call exponentiates
            # its augmented matrix directly, with no matvecs.
            assert sum(r[matvecs] for r in rows) == 0
            assert max(r[header.index("krylov_dim")] for r in rows) == 7
        else:
            assert sum(r[matvecs] for r in rows) > 0

    def test_format_doc_lists_steps_columns(self):
        # steps.csv's header is read off the StepRecord fields, so a new field
        # becomes a column; the steps.csv entry of docs/format.md must list
        # exactly those, in order.
        entry = re.search(r"^- `steps\.csv`: .*?`([^`]+)`", FORMAT_DOC.read_text(),
                          re.MULTILINE | re.DOTALL)
        documented = [name.strip() for name in entry.group(1).split(",")]
        assert documented == [f.name for f in fields(StepRecord)]

    def test_reproducible_solution(self, workdir):
        run_cli("run", "--config", str(workdir / "run.cfg"),
                "--out", str(workdir / "a"))
        run_cli("run", "--config", str(workdir / "run.cfg"),
                "--out", str(workdir / "b"))
        sa = (workdir / "a" / "solution.csv").read_bytes()
        sb = (workdir / "b" / "solution.csv").read_bytes()
        assert sa == sb  # bit-identical across repeated runs
        # steps.csv may differ only in the cpu_ns timing column.
        _, ra = read_csv(workdir / "a" / "steps.csv")
        _, rb = read_csv(workdir / "b" / "steps.csv")
        assert [r[:-1] for r in ra] == [r[:-1] for r in rb]

    def test_out_defaults_to_working_directory(self, workdir, monkeypatch):
        cwd = workdir / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        rc = run_cli("run", "--config", str(workdir / "run.cfg"))
        assert rc == EXIT_OK
        assert (cwd / "solution.csv").exists()
        assert (cwd / "steps.csv").exists()

    def test_clamped_exponent_warns(self, workdir, capsys):
        # Ea = 1e7 J/mol gives -Ea/RT near -1200 at 1000 K, past the clamp
        # of the exponential; the flag reaches stderr, the run still passes.
        mech = workdir / "toy3.mech"
        mech.write_text(mech.read_text() + "\nB => B 1.0 0 1.0e7\n")
        (workdir / "clamp.cfg").write_text(
            SHORT_CFG.replace("t_final 0.2", "t_final 0.01"))
        rc = run_cli("run", "--config", str(workdir / "clamp.cfg"),
                     "--out", str(workdir / "out"))
        assert rc == EXIT_OK
        assert "exponent was clamped at ±700" in capsys.readouterr().err

    def test_validate_ok(self, workdir, capsys):
        rc = run_cli("validate", "--config", str(workdir / "run.cfg"))
        assert rc == EXIT_OK
        assert capsys.readouterr().out.strip() == "ok"


class TestErrorPaths:
    def test_missing_config_file(self, workdir, capsys):
        rc = run_cli("run", "--config", str(workdir / "nope.cfg"))
        assert rc == EXIT_IO
        assert "cannot read" in capsys.readouterr().err

    def test_missing_mechanism_file(self, workdir, capsys):
        (workdir / "toy3.mech").unlink()
        rc = run_cli("validate", "--config", str(workdir / "run.cfg"))
        assert rc == EXIT_IO

    def test_bad_config(self, workdir, capsys):
        for text, code in (
                (SHORT_CFG.replace("Y B 0.9", "Y B 0.5"), "MassFractionSum"),
                (SHORT_CFG + "h_min 0\n", "BadConfigValue")):
            (workdir / "bad.cfg").write_text(text)
            rc = run_cli("validate", "--config", str(workdir / "bad.cfg"))
            assert rc == EXIT_CONFIG
            assert code in capsys.readouterr().err

    def test_species_not_in_mechanism(self, workdir, capsys):
        (workdir / "bad.cfg").write_text(SHORT_CFG.replace("Y F 0.1", "Y Q 0.1"))
        rc = run_cli("validate", "--config", str(workdir / "bad.cfg"))
        assert rc == EXIT_CONFIG

    def test_sweep_without_points(self, workdir, capsys):
        # Neither sweep points nor a reference, then points without one.
        (workdir / "noref.cfg").write_text(SHORT_CFG + "sweep 1e-6 1e-4\n")
        for name, message in (("run.cfg", "requires 'sweep atol rtol'"),
                              ("noref.cfg", "requires a 'reference")):
            rc = run_cli("sweep", "--config", str(workdir / name),
                         "--out", str(workdir / "out"))
            assert rc == EXIT_CONFIG
            assert message in capsys.readouterr().err
        assert not (workdir / "out").exists()

    def test_sweep_reference_not_tight_enough(self, workdir):
        (workdir / "s.cfg").write_text(
            SHORT_CFG + "sweep 1e-6 1e-4\nreference 1e-4 1e-2\n")
        rc = run_cli("sweep", "--config", str(workdir / "s.cfg"))
        assert rc == EXIT_CONFIG
        # The check runs at parse time, so validate reports it too.
        rc = run_cli("validate", "--config", str(workdir / "s.cfg"))
        assert rc == EXIT_CONFIG

    def test_clamp_mode_refused(self, workdir, capsys):
        # Removed keys are gone: any line of one, its old default included,
        # is an unknown key when the config is parsed, and validate exits 2.
        # Detailed balance is the only reverse-rate law, --out alone picks
        # the output directory, and the step-size controller's constants
        # are fixed.
        for line in ("clamp_mode standard", "clamp_mode paper_literal",
                     "clamp_mode bogus", "reverse_rate_convention divide",
                     "reverse_rate_convention multiply", "output_dir out",
                     "safety 0.9", "facmin 0.1", "facmax 5.0",
                     "embedded_order 2"):
            (workdir / "bad.cfg").write_text(SHORT_CFG + line + "\n")
            rc = run_cli("validate", "--config", str(workdir / "bad.cfg"))
            assert rc == EXIT_CONFIG
            assert "UnknownKey" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--mech", "toy3.mech"), ("--clamp-mode", "paper_literal"),
        ("--reverse-rate-convention", "multiply"),
    ])
    def test_no_config_override_flags(self, workdir, flag, value):
        # Config keys are set in the config file only.
        with pytest.raises(SystemExit) as exc_info:
            run_cli("run", "--config", str(workdir / "run.cfg"),
                    "--out", str(workdir / "out"), flag, value)
        assert exc_info.value.code == 2

    def test_validate_takes_no_out(self, workdir):
        # validate writes nothing, so it has no output directory to take.
        with pytest.raises(SystemExit) as exc_info:
            run_cli("validate", "--config", str(workdir / "run.cfg"),
                    "--out", str(workdir / "out"))
        assert exc_info.value.code == 2
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("command, message, written", [
        ("run", "solver failure: step size underflow", "steps.csv"),
        ("spectrum", "solver failure: step size underflow", "spectrum.csv"),
        ("sweep", "reference run failed: step size underflow", None),
    ], ids=["run", "spectrum", "sweep"])
    def test_solver_failure_exit_code(self, workdir, capsys, command, message,
                                      written):
        # h_min too large for the transient: the march cannot recover, and
        # the sweep's reference run (h_min is shared) fails the same way.
        (workdir / "hard.cfg").write_text(
            SHORT_CFG.replace("atol 1e-8", "atol 1e-14\nh_min 1e-3\nh0 1e-3")
            .replace("rtol 1e-6", "rtol 1e-13")
            + "sweep 1e-8 1e-6\nreference 1e-14 1e-13\n")
        rc = run_cli(command, "--config", str(workdir / "hard.cfg"),
                     "--out", str(workdir / "out"))
        assert rc == EXIT_SOLVER
        assert message in capsys.readouterr().err
        if written is None:
            # A sweep without a reference has nothing to score its points by.
            assert not (workdir / "out" / "sweep.csv").exists()
        else:
            # Partial telemetry is still written for post-mortem analysis.
            assert (workdir / "out" / written).exists()

    def test_out_below_a_regular_file(self, workdir, capsys):
        (workdir / "plain").write_text("")
        rc = run_cli("run", "--config", str(workdir / "run.cfg"),
                     "--out", str(workdir / "plain" / "out"))
        assert rc == EXIT_IO
        assert "cannot create output dir" in capsys.readouterr().err


class TestSweep:
    def test_sweep_rows_and_self_consistency(self, workdir):
        (workdir / "s.cfg").write_text(
            SHORT_CFG + "sweep 1e-6 1e-4\nsweep 1e-8 1e-6\nsweep 1e-10 1e-8\n"
            "reference 1e-10 1e-8\n")
        rc = run_cli("sweep", "--config", str(workdir / "s.cfg"),
                     "--out", str(workdir / "out"))
        assert rc == EXIT_OK
        header, rows = read_csv(workdir / "out" / "sweep.csv")
        assert header == ["atol", "rtol", "cpu_s", "err_2norm", "err_scaled",
                          "failed"]
        assert len(rows) == 3
        assert all(r[5] == 0.0 for r in rows)
        errs = [r[3] for r in rows]
        assert errs[0] > errs[2]  # looser tolerances, larger error
        # The last point duplicates the reference: identical march, error 0.
        assert errs[2] == 0.0

    def test_repeated_sweeps_match(self, workdir):
        (workdir / "s.cfg").write_text(
            SHORT_CFG + "sweep 1e-6 1e-4\nsweep 1e-8 1e-6\n"
            "reference 1e-11 1e-9\n")
        run_cli("sweep", "--config", str(workdir / "s.cfg"),
                "--out", str(workdir / "first"))
        run_cli("sweep", "--config", str(workdir / "s.cfg"),
                "--out", str(workdir / "second"))
        _, r1 = read_csv(workdir / "first" / "sweep.csv")
        _, r2 = read_csv(workdir / "second" / "sweep.csv")
        # Everything except the wall-clock column is identical.
        assert len(r1) == len(r2) == 2
        for a, b in zip(r1, r2):
            assert a[:2] == b[:2] and a[3:] == b[3:]
        # Sweep points run one after the other; there is no --parallel.
        with pytest.raises(SystemExit) as exc_info:
            run_cli("sweep", "--config", str(workdir / "s.cfg"),
                    "--out", str(workdir / "par"), "--parallel")
        assert exc_info.value.code == 2


class TestSpectrum:
    def test_spectrum_rows(self, workdir):
        rc = run_cli("spectrum", "--config", str(workdir / "run.cfg"),
                     "--out", str(workdir / "out"))
        assert rc == EXIT_OK
        header, rows = read_csv(workdir / "out" / "spectrum.csv")
        assert header == ["t", "alpha", "beta", "omega", "max_real",
                          "norm_step_cost"]
        assert rows
        # Every row carries eigenvalue data.
        assert all(isinstance(r[3], float) for r in rows)
        assert all(r[5] > 0 for r in rows)

    def test_large_mechanism(self, tmp_path):
        # 512 species and no reactions: the state has 513 components, and
        # every accepted step still gets its eigenvalue row.
        mech = make_mechanism([make_species(f"S{i}", 0.03) for i in range(512)], [])
        (tmp_path / "big.mech").write_text(serialize_mechanism(mech))
        (tmp_path / "big.cfg").write_text(
            SHORT_CFG.replace("toy3.mech", "big.mech")
            .replace("Y F 0.1\nY B 0.9\n", "Y S0 1.0\n"))
        rc = run_cli("spectrum", "--config", str(tmp_path / "big.cfg"),
                     "--out", str(tmp_path / "out"))
        assert rc == EXIT_OK
        _, rows = read_csv(tmp_path / "out" / "spectrum.csv")
        assert rows
        assert all(r[1] == r[2] == r[4] == 0.0 for r in rows)  # J = 0

    def test_eigensolver_failure_writes_nan_row(self, workdir, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        (workdir / "early.cfg").write_text(
            SHORT_CFG.replace("t_final 0.2", "t_final 1e-4"))
        rc = run_cli("spectrum", "--config", str(workdir / "early.cfg"),
                     "--out", str(workdir / "out"))
        assert rc == EXIT_OK
        _, rows = read_csv(workdir / "out" / "spectrum.csv")
        assert rows
        assert all(np.isnan(r[1:5]).all() and r[5] > 0 for r in rows)

    def test_spectrum_every_only_on_spectrum(self, workdir):
        # The --spectrum-every flag was removed: spectrum writes every
        # accepted step, and no subcommand takes the flag.
        for command in ("run", "spectrum"):
            with pytest.raises(SystemExit) as exc_info:
                run_cli(command, "--config", str(workdir / "run.cfg"),
                        "--out", str(workdir / "out"), "--spectrum-every", "10")
            assert exc_info.value.code == 2

    def test_pre_ignition_alpha_settles(self, workdir):
        # Once the radical pool leaves exactly zero (the clamp kink in the
        # FD Jacobian) the pre-ignition spectrum is essentially frozen.
        (workdir / "early.cfg").write_text(
            SHORT_CFG.replace("t_final 0.2", "t_final 1e-4"))
        run_cli("spectrum", "--config", str(workdir / "early.cfg"),
                "--out", str(workdir / "out"))
        _, rows = read_csv(workdir / "out" / "spectrum.csv")
        alphas = np.array([r[1] for r in rows], dtype=float)
        tail = alphas[-6:]
        assert np.ptp(tail) <= 1e-4 * np.abs(tail).max()
