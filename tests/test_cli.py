"""End-to-end CLI runs on the packaged toy mechanism."""
import argparse
import ast
import re
import shutil
from dataclasses import fields

import numpy as np
import pytest

from conftest import FIXTURE_DIR, FORMAT_DOC, make_mechanism, make_species, mechgen
from expkin import cli, integrator
from expkin.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SOLVER, main
from expkin.integrator import StepRecord, integrate_mechanism
from expkin.kinetics import Reaction
from expkin.mechio import RunConfig, serialize_mechanism, write_csv
from oracles import read_csv

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

# A generated K = 12 network (n + 3 = 16, above DENSE_PHI_MAX): its phi calls
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


def documented_columns(filename):
    """The columns docs/format.md lists for a CSV output, in order."""
    entry = re.search(rf"^- `{re.escape(filename)}`: .*?`([^`]+)`",
                      FORMAT_DOC.read_text(), re.MULTILINE | re.DOTALL)
    return [name.strip() for name in entry.group(1).split(",")]


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
        # One row per solver record, and the matvecs column is theirs.
        out, = outputs
        assert len(rows) == len(out.records)
        matvecs = header.index("matvecs")
        assert sum(r[matvecs] for r in rows) == sum(r.matvecs for r in out.records)
        if case == "toy3":
            # n + MAX_PHI_ORDER = 7 (at most DENSE_PHI_MAX): every attempt takes its
            # phi matrices from one dense exponential and does no Krylov work.
            krylov = [header.index(name) for name in
                      ("krylov_dim", "substeps", "matvecs", "kiops_calls")]
            assert all(r[i] == 0.0 for r in rows for i in krylov)
        else:
            # Completed attempts use exactly two Krylov evaluations.
            kiops_calls = header.index("kiops_calls")
            assert all(r[kiops_calls] == 2.0 for r in accepted)
            assert sum(r[matvecs] for r in rows) > 0

    def test_steps_csv_bytes_match_dict_rows(self, workdir, monkeypatch):
        # The rows cmd_run built before, a dict per record with `accepted`
        # as 0/1, written by write_csv, are the reference for the bytes.
        outputs = []

        def capture(*args, **kwargs):
            outputs.append(integrate_mechanism(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(cli, "integrate_mechanism", capture)
        run_cli("run", "--config", str(workdir / "run.cfg"),
                "--out", str(workdir / "out"))
        out, = outputs
        assert any(r.accepted for r in out.records)
        assert not all(r.accepted for r in out.records)
        write_csv(workdir / "dict_rows.csv", [f.name for f in fields(StepRecord)],
                  [{**vars(r), "accepted": int(r.accepted)}.values()
                   for r in out.records])
        assert ((workdir / "out" / "steps.csv").read_bytes()
                == (workdir / "dict_rows.csv").read_bytes())

    def test_format_doc_lists_steps_columns(self):
        # steps.csv's header is read off the StepRecord fields, so a new field
        # becomes a column; the steps.csv entry of docs/format.md must list
        # exactly those, in order.
        assert documented_columns("steps.csv") == [f.name for f in fields(StepRecord)]

    @pytest.mark.parametrize("command", ["sweep", "spectrum"])
    def test_format_doc_lists_written_columns(self, workdir, command):
        # The sweep.csv and spectrum.csv headers are written by cli.py beside
        # their rows; docs/format.md must list the header a run writes.
        (workdir / "early.cfg").write_text(
            SHORT_CFG.replace("t_final 0.2", "t_final 1e-4")
            + "sweep 1e-8 1e-6\nreference 1e-8 1e-6\n")
        rc = run_cli(command, "--config", str(workdir / "early.cfg"),
                     "--out", str(workdir / "out"))
        assert rc == EXIT_OK
        header, _ = read_csv(workdir / "out" / f"{command}.csv")
        assert documented_columns(f"{command}.csv") == header

    def test_readme_lists_modules(self):
        # The README's component bullets name every module of the package.
        readme = (FORMAT_DOC.parents[1] / "README.md").read_text()
        listed = re.findall(r"^- `expkin\.(\w+)`", readme, re.MULTILINE)
        package = FIXTURE_DIR.parent
        assert sorted(listed) == sorted(
            p.stem for p in package.glob("*.py") if p.stem != "__init__")

    def test_module_layering(self):
        # The package's modules import each other only downwards: kinetics
        # and phikrylov are leaves, the parser does not know the solver, and
        # only the CLI joins the two.
        def internal(node):
            if isinstance(node, ast.Import):
                return {a.name.split(".")[1] for a in node.names
                        if a.name.startswith("expkin.")}
            if not isinstance(node, ast.ImportFrom):
                return set()
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "expkin":
                    return set()
                module = module[len("expkin"):].lstrip(".")
            return {module.split(".")[0]} if module else {a.name for a in node.names}

        imports = {
            path.stem: set().union(*map(internal, ast.walk(ast.parse(path.read_text()))))
            for path in FIXTURE_DIR.parent.glob("*.py") if path.stem != "__init__"}
        assert imports == {
            "kinetics": set(),
            "phikrylov": set(),
            "mechio": {"kinetics"},
            "integrator": {"kinetics", "phikrylov"},
            "cli": {"mechio", "integrator", "kinetics"},
        }

    def test_public_surface(self):
        # Every public top-level name of the package is used by the package
        # or the benchmark, apart from the thin views of private helpers
        # that only the tests read. String constants count as uses: the
        # benchmark's tracing hooks name their targets as strings.
        def referenced(tree):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    yield node.id
                elif isinstance(node, ast.Attribute):
                    yield node.attr
                elif isinstance(node, ast.alias):
                    yield from node.name.split(".")
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    yield node.value

        def defined(tree):
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    yield node.name
                elif isinstance(node, ast.Assign):
                    yield from (t.id for t in node.targets if isinstance(t, ast.Name))

        root = FORMAT_DOC.parents[1]
        package = [ast.parse(p.read_text()) for p in FIXTURE_DIR.parent.glob("*.py")]
        bench = [ast.parse(p.read_text()) for p in (root / "perfbench").glob("*.py")]
        used = set().union(*(referenced(t) for t in package + bench))
        public = {n for t in package for n in defined(t) if not n.startswith("_")}
        assert public - used == {
            "dense_phi_oracle", "density", "concentrations", "reaction_rates",
            "rate_constants", "equilibrium_constants", "species_thermo"}

        # The test references stay independent of the package's private helpers.
        oracles = ast.parse((root / "tests" / "oracles.py").read_text())
        private = [a.name for node in ast.walk(oracles)
                   if isinstance(node, ast.ImportFrom)
                   and (node.module or "").startswith("expkin")
                   for a in node.names if a.name.startswith("_")]
        private += [node.attr for node in ast.walk(oracles)
                    if isinstance(node, ast.Attribute) and node.attr.startswith("_")]
        assert private == []

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
                (SHORT_CFG + "h0 0\n", "BadConfigValue"),
                # Fractions that sum to 1, one of them negative.
                (SHORT_CFG.replace("Y F 0.1", "Y F -0.5").replace("Y B 0.9", "Y B 1.5"),
                 "BadConfigValue: mass fraction of 'F'")):
            (workdir / "bad.cfg").write_text(text)
            rc = run_cli("validate", "--config", str(workdir / "bad.cfg"))
            assert rc == EXIT_CONFIG
            assert code in capsys.readouterr().err

    def test_stoichiometric_count_too_large(self, workdir, capsys):
        # A count beyond the integer stoichiometric matrices once ended in
        # an OverflowError traceback; it is a BadReaction at its line.
        with open(workdir / "toy3.mech", "a") as fh:
            fh.write("F => 99999999999999999999 X 1 0 0\n")
        lines = (workdir / "toy3.mech").read_text().splitlines()
        rc = run_cli("validate", "--config", str(workdir / "run.cfg"))
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("mechanism error: BadReaction: stoichiometric coefficient")
        assert err.endswith(f"(line {len(lines)})\n")

    def test_species_not_in_mechanism(self, workdir, capsys):
        (workdir / "bad.cfg").write_text(SHORT_CFG.replace("Y F 0.1", "Y Q 0.1"))
        rc = run_cli("validate", "--config", str(workdir / "bad.cfg"))
        assert rc == EXIT_CONFIG
        assert "UnknownSpecies: species 'Q'" in capsys.readouterr().err

    def test_T0_outside_thermo_range(self, workdir, capsys):
        # toy3's species all cover [200, 6000] K: 100 K is refused when the
        # config meets the mechanism, and the range edge is accepted.
        (workdir / "cold.cfg").write_text(SHORT_CFG.replace("T0 1000.0", "T0 100.0"))
        rc = run_cli("validate", "--config", str(workdir / "cold.cfg"))
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: BadConfigValue: T0 100.0 K outside thermo range "
            "[200.0, 6000.0] of species 'F'\n")
        (workdir / "edge.cfg").write_text(SHORT_CFG.replace("T0 1000.0", "T0 200.0"))
        assert run_cli("validate", "--config", str(workdir / "edge.cfg")) == EXIT_OK

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
        # and its step floor are fixed.
        for line in ("clamp_mode standard", "clamp_mode paper_literal",
                     "clamp_mode bogus", "reverse_rate_convention divide",
                     "reverse_rate_convention multiply", "output_dir out",
                     "safety 0.9", "facmin 0.1", "facmax 5.0",
                     "embedded_order 2", "h_min 0", "h_min 1e-10",
                     "h0 1e-20\nh_min 1e-10"):
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
    def test_solver_failure_exit_code(self, workdir, monkeypatch, capsys, command,
                                      message, written):
        # A step floor of 1e-3 s is too large for the transient: the march
        # cannot recover, and the sweep's reference run (same interval, so
        # the same floor) fails the same way.
        monkeypatch.setattr(integrator, "H_MIN_FRACTION", 1e-3 / 0.2)
        (workdir / "hard.cfg").write_text(
            SHORT_CFG.replace("atol 1e-8", "atol 1e-14\nh0 1e-3")
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

    @pytest.mark.parametrize("kind", ["config", "mechanism"])
    def test_input_not_utf8(self, workdir, capsys, kind):
        # docs/format.md: both files are UTF-8 text. Another encoding is a
        # parse error naming the file, not a UnicodeDecodeError traceback.
        if kind == "config":
            path = workdir / "run.cfg"
            path.write_bytes(b"# caf\xe9\n" + SHORT_CFG.encode())
        else:
            path = workdir / "toy3.mech"
            path.write_bytes(b"\xff\xfe" + path.read_bytes())
        rc = run_cli("validate", "--config", str(workdir / "run.cfg"))
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{path} is not UTF-8 text" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, filename", [
        ("run", "solution.csv"), ("run", "steps.csv"),
        ("sweep", "sweep.csv"), ("spectrum", "spectrum.csv"),
    ])
    def test_output_not_writable(self, workdir, capsys, command, filename):
        # An output file that cannot be opened (here a directory of its
        # name) is an I/O error naming the file.
        (workdir / "s.cfg").write_text(
            SHORT_CFG + "sweep 1e-6 1e-4\nreference 1e-8 1e-6\n")
        (workdir / "out" / filename).mkdir(parents=True)
        rc = run_cli(command, "--config", str(workdir / "s.cfg"),
                     "--out", str(workdir / "out"))
        assert rc == EXIT_IO
        err = capsys.readouterr().err
        assert f"cannot write {workdir / 'out' / filename}: " in err
        assert "Traceback" not in err


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
        # Before ignition the state barely moves (T rises by about 0.05 K in
        # 1e-4 s), so the spectrum of the analytical Jacobian is essentially
        # frozen.
        (workdir / "early.cfg").write_text(
            SHORT_CFG.replace("t_final 0.2", "t_final 1e-4"))
        run_cli("spectrum", "--config", str(workdir / "early.cfg"),
                "--out", str(workdir / "out"))
        _, rows = read_csv(workdir / "out" / "spectrum.csv")
        alphas = np.array([r[1] for r in rows], dtype=float)
        tail = alphas[-6:]
        assert np.ptp(tail) <= 1e-4 * np.abs(tail).max()


def test_main_reuses_one_parser(workdir, capsys, monkeypatch):
    # Every main call parses with the one parser build_parser returns, and
    # a parse, even one that exits with a usage error, leaves it unchanged.
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    parsed = []
    parse_args = parser.parse_args

    def recorded(args):
        parsed.append(args)
        return parse_args(args)
    monkeypatch.setattr(parser, "parse_args", recorded)
    argv = ("validate", "--config", str(workdir / "run.cfg"))
    outputs = []
    for bad in (None, ("--out", "x"), None):
        if bad is None:
            assert run_cli(*argv) == EXIT_OK
        else:
            with pytest.raises(SystemExit) as exc_info:
                run_cli(*argv, *bad)
            assert exc_info.value.code == 2
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[2] == "ok\n"
    assert len(parsed) == 3
    assert cli.build_parser() is parser
    assert vars(parse_args(argv)) == {
        "command": "validate", "config": str(workdir / "run.cfg"),
        "func": cli.cmd_validate}


def test_option_count_is_pinned():
    # The independently settable options are the RunConfig fields (one per
    # config key; Y, sweep and reference included) and the distinct flags of
    # every subcommand. A new one fails here until this pin and the count in
    # ROADMAP.md are updated. The per-reaction fields of the mechanism format
    # are pinned the same way.
    parser = cli.build_parser()
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {opt for p in sub.choices.values() for a in p._actions
             if a.dest != "help" for opt in a.option_strings}
    assert sorted(flags) == ["--config", "--out"]
    assert len(fields(RunConfig)) == 12
    assert len(fields(RunConfig)) + len(flags) == 14
    assert [f.name for f in fields(Reaction)] == [
        "reactants", "products", "arrhenius", "reversible"]
