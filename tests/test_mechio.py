"""Mechanism / run-config parsing, serialization and CSV round trips."""
import csv
import re

import numpy as np
import pytest

from conftest import FIXTURE_DIR, FORMAT_DOC, mechgen, random_balanced_mechanism
from expkin.mechio import (
    _SCALAR_KEYS, _UNSUPPORTED_RXN, MechIoError, RunConfig, parse_config,
    parse_mechanism, read_csv, serialize_mechanism, write_csv,
)

MINIMAL = """\
format 1

[species]
# name W t_low t_mid t_high a1..a7 low a1..a7 high
A 0.030 200.0 1000.0 6000.0 3.5 0 0 0 0 100.0 5.0 3.5 0 0 0 0 100.0 5.0
B 0.030 200.0 1000.0 6000.0 3.5 0 0 0 0 -50.0 5.0 3.5 0 0 0 0 -50.0 5.0

[reactions]
A => B 1.0e6 0.0 8.0e4
A + B <=> 2 B 2.0e5 0.5 4.0e4
"""


def code_of(excinfo):
    return excinfo.value.code


class TestParseMechanism:
    def test_minimal(self):
        mech = parse_mechanism(MINIMAL)
        assert mech.n_species == 2 and mech.n_reactions == 2
        assert mech.species[0].name == "A"
        assert mech.reactions[1].reversible
        assert mech.reactions[1].reactants == {0: 1, 1: 1}
        assert mech.reactions[1].products == {1: 2}
        assert mech.reactions[0].arrhenius == (1.0e6, 0.0, 8.0e4)

    def test_toy_fixture(self):
        mech = parse_mechanism((FIXTURE_DIR / "toy3.mech").read_text())
        assert mech.n_species == 3 and mech.n_reactions == 2
        assert [s.name for s in mech.species] == ["F", "X", "B"]

    def test_empty_reactions_section(self):
        text = MINIMAL.split("[reactions]")[0] + "[reactions]\n"
        mech = parse_mechanism(text)
        assert mech.n_reactions == 0

    def test_comments_and_blank_lines_ignored(self):
        text = MINIMAL.replace(
            "A => B 1.0e6 0.0 8.0e4",
            "# full comment line\nA => B 1.0e6 0.0 8.0e4  # trailing")
        assert parse_mechanism(text).n_reactions == 2

    def test_missing_format_header(self):
        with pytest.raises(MechIoError) as e:
            parse_mechanism(MINIMAL.replace("format 1\n", ""))
        assert code_of(e) == "BadFormatVersion"

    def test_wrong_format_version(self):
        with pytest.raises(MechIoError) as e:
            parse_mechanism(MINIMAL.replace("format 1", "format 2"))
        assert code_of(e) == "BadFormatVersion"

    def test_unknown_section(self):
        with pytest.raises(MechIoError) as e:
            parse_mechanism(MINIMAL.replace("[reactions]", "[rates]"))
        assert code_of(e) == "UnknownSection"

    def test_duplicate_species(self):
        dup = MINIMAL.replace(
            "B 0.030", "A 0.030", 1)
        with pytest.raises(MechIoError) as e:
            parse_mechanism(dup)
        assert code_of(e) == "DuplicateSpecies"

    def test_unknown_species_in_reaction(self):
        with pytest.raises(MechIoError) as e:
            parse_mechanism(MINIMAL.replace("A => B 1.0e6", "A => C 1.0e6"))
        assert code_of(e) == "UnknownSpecies"
        assert e.value.line is not None

    def test_species_token_count(self):
        with pytest.raises(MechIoError) as e:
            parse_mechanism(MINIMAL.replace(
                "A 0.030 200.0", "A 200.0", 1))
        assert code_of(e) == "BadSpecies"

    def test_bad_number(self):
        with pytest.raises(MechIoError) as e:
            parse_mechanism(MINIMAL.replace("1.0e6", "fast"))
        assert code_of(e) == "BadNumber"

    def test_missing_arrow(self):
        with pytest.raises(MechIoError) as e:
            parse_mechanism(MINIMAL.replace("A => B 1.0e6", "A - B 1.0e6"))
        assert code_of(e) == "BadReaction"

    def test_bad_arrhenius_count(self):
        with pytest.raises(MechIoError) as e:
            parse_mechanism(MINIMAL.replace("1.0e6 0.0 8.0e4", "1.0e6 0.0"))
        assert code_of(e) in ("BadArrhenius", "BadNumber", "UnknownSpecies")

    @pytest.mark.parametrize("line", [
        "A + M => B + M 1.0e6 0.0 8.0e4",
        "A (+M) => B (+M) 1.0e6 0.0 8.0e4",
        "A => B 1.0e6 0.0 8.0e4 LOW 1e3 0 0",
    ])
    def test_unsupported_reaction_types(self, line):
        with pytest.raises(MechIoError) as e:
            parse_mechanism(MINIMAL.replace("A => B 1.0e6 0.0 8.0e4", line))
        assert code_of(e) == "UnsupportedReactionType"

    def test_unsupported_check_matches_alternation(self):
        # The one-pattern form the check had before it was split in three.
        alternation = re.compile(
            r"\(\+\s*\w+\s*\)|(?:^|\s)\+\s*M(?:\s|$)|\bLOW\b|\bTROE\b|\bPLOG\b")
        lines = [
            "A + M => B + M 1.0e6 0.0 8.0e4",
            "A (+M) => B (+M) 1.0e6 0.0 8.0e4",
            "A => B 1.0e6 0.0 8.0e4 LOW 1e3 0 0",
            "M1 + X => 2 X 1.0 0.0 0.0",
            "X + M1 => SLOW 1.0 0.0 0.0",
            "SLOW <=> LOWER 1.0 0.0 0.0",
            "A +M => B 1 0 0",
            "A+M => B 1 0 0",
            "A => B + M",
            "A (+ N2 ) => B 1 0 0",
            "A => B 1 0 0 TROE 0.5 1 2",
            "A => B PLOG/1/",
            "LOW/1 2 3/",
            "ALOW => BTROE 1 0 0",
        ]
        lines += serialize_mechanism(mechgen.generate_mechanism(12, 0)).splitlines()
        refused = 0
        for line in lines:
            want = alternation.search(line) is not None
            assert any(p.search(line) for p in _UNSUPPORTED_RXN) == want, line
            refused += want
        assert refused == 9

    def test_mass_imbalance_reports_line(self):
        bad = MINIMAL.replace(
            "B 0.030", "B 0.020", 1)
        with pytest.raises(MechIoError) as e:
            parse_mechanism(bad)
        assert code_of(e) == "MassImbalance"
        assert e.value.line is not None

    def test_no_species(self):
        with pytest.raises(MechIoError) as e:
            parse_mechanism("format 1\n[species]\n[reactions]\n")
        assert code_of(e) == "NoSpecies"

    def test_explicit_reverse_parsed(self):
        text = MINIMAL.replace("A + B <=> 2 B 2.0e5 0.5 4.0e4",
                               "A + B <=> 2 B 2.0e5 0.5 4.0e4 rev: 1.0e3 0.0 2.0e4")
        mech = parse_mechanism(text)
        assert mech.reactions[1].explicit_reverse == (1.0e3, 0.0, 2.0e4)

    def test_rev_on_irreversible_rejected(self):
        text = MINIMAL.replace("A => B 1.0e6 0.0 8.0e4",
                               "A => B 1.0e6 0.0 8.0e4 rev: 1.0 0.0 0.0")
        with pytest.raises(MechIoError) as e:
            parse_mechanism(text)
        assert code_of(e) == "BadReaction"


class TestRoundTrip:
    def test_minimal_round_trip(self):
        mech = parse_mechanism(MINIMAL)
        again = parse_mechanism(serialize_mechanism(mech))
        assert again == mech

    def test_serialized_floats_exact(self):
        mech = parse_mechanism(MINIMAL)
        text = serialize_mechanism(mech)
        again = parse_mechanism(text)
        assert again.species[0].coeffs_low == mech.species[0].coeffs_low
        assert again.reactions[1].arrhenius == mech.reactions[1].arrhenius

    def test_random_mechanisms_round_trip(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            mech = random_balanced_mechanism(rng)
            again = parse_mechanism(serialize_mechanism(mech))
            assert again == mech
            # Twice through is a fixed point.
            assert serialize_mechanism(again) == serialize_mechanism(mech)


CONFIG = """\
mechanism toy3.mech
T0 1000.0
pressure 101325.0
Y F 0.1
Y B 0.9
t_final 0.3
atol 1e-10
rtol 1e-8
"""


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config(CONFIG)
        assert cfg.mechanism == "toy3.mech"
        assert cfg.T0 == 1000.0 and cfg.pressure == 101325.0
        assert cfg.Y0 == {"F": pytest.approx(0.1), "B": pytest.approx(0.9)}
        assert cfg.t_final == 0.3 and cfg.atol == 1e-10 and cfg.rtol == 1e-8
        assert cfg.method == "epi3v"

    def test_mass_fractions_renormalized(self):
        cfg = parse_config(CONFIG.replace("Y B 0.9", "Y B 0.9000004"))
        assert sum(cfg.Y0.values()) == pytest.approx(1.0, abs=1e-15)

    def test_mass_fraction_sum_violation(self):
        with pytest.raises(MechIoError) as e:
            parse_config(CONFIG.replace("Y B 0.9", "Y B 0.8"))
        assert code_of(e) == "MassFractionSum"

    def test_unknown_key(self):
        with pytest.raises(MechIoError) as e:
            parse_config(CONFIG + "turbulence on\n")
        assert code_of(e) == "UnknownKey"

    def test_format_doc_lists_every_key(self):
        # The scalar keys are read off the RunConfig fields, so a new field
        # becomes a key; the config table of docs/format.md must name it.
        section = FORMAT_DOC.read_text().split("## Run configuration files")[1]
        documented = set()
        for line in section.split("\n## ")[0].splitlines():
            if line.startswith("| `"):
                cell = line.split("|")[1]
                documented.update(code.split()[0]
                                  for code in re.findall(r"`([^`]+)`", cell))
        assert documented == set(_SCALAR_KEYS) | {"Y", "sweep", "reference"}

    def test_missing_required_key(self):
        with pytest.raises(MechIoError) as e:
            parse_config(CONFIG.replace("T0 1000.0\n", ""))
        assert code_of(e) == "MissingKey"

    def test_duplicate_Y(self):
        with pytest.raises(MechIoError) as e:
            parse_config(CONFIG + "Y F 0.0\n")
        assert code_of(e) == "BadConfigValue"

    def test_bad_method(self):
        # exp_euler has no integrator of its own: only epi3v runs.
        for method in ("rk4", "exp_euler"):
            with pytest.raises(MechIoError) as e:
                parse_config(CONFIG + f"method {method}\n")
            assert code_of(e) == "BadConfigValue"

    @pytest.mark.parametrize("lines", [
        "facmin 2.0\n", "facmax 0.5\n", "safety 0\n", "embedded_order 3\n",
        "clamp_mode bogus\n", "h0 1e-20\nh_min 1e-10\n", "n_output_samples -3\n",
        "sweep 1e-6 1e-4\nreference 0 1e-11\n", "h0 nan\n", "h_min 0\n",
        "t_final inf\n", "t_final 0.5\n",
        "sweep 1e-6 1e-4\nreference 1e-8 1e-6\nreference 1e-9 1e-7\n",
        # These replace CONFIG's line of the same key (old line, new line).
        pytest.param(("Y F 0.1", "Y F nan"), id="Y F nan"),
        pytest.param(("T0 1000.0", "T0 -5"), id="T0 -5"),
        pytest.param(("pressure 101325.0", "pressure nan"), id="pressure nan"),
    ])
    def test_bad_value_rejected_at_parse_time(self, lines):
        # Controller settings and the sweep reference are checked when the
        # config is parsed, not when a subcommand first uses them. CONFIG is
        # toy_ignition.cfg without its comments and method line, so the
        # appended "t_final 0.5" repeats a key of that fixture: a key given
        # twice is refused rather than letting the last line win. The
        # clamp_mode key and the controller constants (safety, facmin,
        # facmax, embedded_order) were removed, so their lines are refused
        # as unknown.
        # A NaN mass fraction fails the sum test, so it is MassFractionSum.
        if isinstance(lines, tuple):
            text, key = CONFIG.replace(*lines), lines[1].split()[0]
        else:
            text, key = CONFIG + lines, lines.split()[0]
        with pytest.raises(MechIoError) as e:
            parse_config(text)
        removed = key in ("clamp_mode", "safety", "facmin", "facmax", "embedded_order")
        assert code_of(e) == ("UnknownKey" if removed else
                              "MassFractionSum" if key == "Y" else "BadConfigValue")

    def test_bad_reverse_rate_convention(self):
        # Detailed balance is the only reverse-rate law: the key was removed,
        # so a line of it, with any value, is refused as unknown at parse time.
        for value in ("subtract", "divide", "multiply"):
            with pytest.raises(MechIoError) as e:
                parse_config(CONFIG + f"reverse_rate_convention {value}\n")
            assert code_of(e) == "UnknownKey"

    @pytest.mark.parametrize("value", ["inf", "0"])
    def test_t_final_range(self, value):
        # Replaces CONFIG's t_final line: an appended one (as in the case
        # "t_final inf" above) is now refused as a repeat before its range
        # is checked.
        with pytest.raises(MechIoError, match="t_final must be positive") as e:
            parse_config(CONFIG.replace("t_final 0.3", f"t_final {value}"))
        assert code_of(e) == "BadConfigValue"

    def test_sweep_and_reference(self):
        cfg = parse_config(CONFIG + "sweep 1e-6 1e-4\nsweep 1e-8 1e-6\n"
                           "reference 1e-12 1e-10\n")
        assert cfg.sweep_points == [(1e-6, 1e-4), (1e-8, 1e-6)]
        assert cfg.reference_tols == (1e-12, 1e-10)

    def test_fixture_configs_parse(self):
        for name in ("toy_ignition.cfg", "toy_sweep.cfg", "gri30.cfg",
                     "nbutane.cfg", "ndodecane.cfg"):
            cfg = parse_config((FIXTURE_DIR / name).read_text())
            assert sum(cfg.Y0.values()) == pytest.approx(1.0, abs=1e-12)

    def test_paper_initial_conditions(self):
        # Ignition cases: the non-diluent mass fractions are pinned; the
        # diluent absorbs any rounding slack so the fractions sum to one.
        gri = parse_config((FIXTURE_DIR / "gri30.cfg").read_text())
        assert gri.T0 == 1000.0
        assert gri.Y0["CH4"] == pytest.approx(0.0548, abs=1e-10)
        assert gri.Y0["O2"] == pytest.approx(0.2187, abs=1e-10)
        dod = parse_config((FIXTURE_DIR / "ndodecane.cfg").read_text())
        assert dod.T0 == 1200.0
        assert dod.Y0["O2"] == pytest.approx(0.2169, abs=1e-10)
        assert dod.Y0["C12H26"] == pytest.approx(0.0624, abs=1e-10)


class TestCsv:
    def test_header_only(self, tmp_path):
        p = tmp_path / "x.csv"
        write_csv(p, ("a", "b"), [])
        header, rows = read_csv(p)
        assert header == ["a", "b"] and rows == []

    def test_float_round_trip(self, tmp_path):
        p = tmp_path / "x.csv"
        vals = [0.1, 1.0 / 3.0, 1e-300, 6.02214076e23, -0.0]
        write_csv(p, ("v",) * len(vals), [vals])
        _, rows = read_csv(p)
        for got, want in zip(rows[0], vals):
            assert got == want  # bit-exact through repr()

    def test_mixed_types(self, tmp_path):
        p = tmp_path / "x.csv"
        write_csv(p, ("t", "n", "tag"), [[1.5, 3, "ok"]])
        _, rows = read_csv(p)
        assert rows[0] == [1.5, 3.0, "ok"]

    def test_bytes_match_csv_writer(self, tmp_path):
        # The csv.writer path write_csv had before, with repr(float(v)) for
        # every float cell, is the reference for the bytes.
        header = ("t", "Y_A,B", 'Y_"q"', "n")
        rows = [
            (0.0, np.float64(1.0 / 3.0), float("nan"), 7),
            (1e-300, np.float64(-0.0), float("inf"), np.int64(-2)),
            [6.02214076e23, -float("inf"), np.float64(np.nan), 0],
            *np.column_stack((np.linspace(0, 1, 5), np.random.default_rng(3)
                              .standard_normal((5, 3)))).tolist(),
        ]
        write_csv(tmp_path / "new.csv", header, rows)
        with open(tmp_path / "old.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(float(v)) if isinstance(v, float) else v
                                 for v in row])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestFuzz:
    def test_parser_never_crashes_on_mutations(self):
        """Random single-edit mutations either parse or raise MechIoError."""
        rng = np.random.default_rng(20240817)
        base = MINIMAL
        charset = list("abqXYZ0123456789.+-=<>[]# \t")
        n_ok = n_err = 0
        for _ in range(2000):
            text = list(base)
            op = rng.integers(3)
            pos = int(rng.integers(len(text)))
            if op == 0:
                text[pos] = str(rng.choice(charset))
            elif op == 1:
                text.insert(pos, str(rng.choice(charset)))
            else:
                del text[pos]
            try:
                parse_mechanism("".join(text))
                n_ok += 1
            except MechIoError:
                n_err += 1
        assert n_ok + n_err == 2000
        assert n_err > 0  # mutations do get caught, not silently accepted
