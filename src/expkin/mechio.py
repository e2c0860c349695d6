"""Parsing and serialization of mechanism files and run configs, and the
CSV codec the CLI writes its outputs with.

The mechanism format is a sectioned line-oriented plain-text format
(documented in docs/format.md):

    format 1

    [species]
    # name  W  T_low T_mid T_high  a1..a7 (low)  a1..a7 (high)
    F  0.030  200 1000 6000  3.5 0 0 0 0 45000 10  3.5 0 0 0 0 45000 10

    [reactions]
    F + X => 2 X   1.0e8  0  8.0e4
    A <=> B        1.0e3  0.5  1.0e3  rev: 2.0e3 0.5 1.2e3
"""
from __future__ import annotations

import csv
import re
from dataclasses import MISSING, dataclass, field, fields

from .integrator import ControllerConfig
from .kinetics import KineticsError, Mechanism, Reaction, Species

FORMAT_VERSION = 1
MASS_SUM_TOL = 1.0e-6


class MechIoError(ValueError):
    """Parse/validation diagnostic with an error code and source line."""

    def __init__(self, code, message, line=None):
        self.code = code
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{code}: {message}{where}")


def _fail(code, message, line=None):
    raise MechIoError(code, message, line)


def _parse_float(tok, line, what="number"):
    try:
        return float(tok)
    except ValueError:
        _fail("BadNumber", f"cannot parse {what} {tok!r}", line)


# Tokens that indicate unsupported pressure-dependent reaction syntax: a
# falloff "(+M)", a third body "+ M" and the falloff/PLOG keywords. A line is
# refused when any one matches; three plain searches cost less than one
# search of their alternation.
_UNSUPPORTED_RXN = (
    re.compile(r"\(\+\s*\w+\s*\)"),
    re.compile(r"(?:^|\s)\+\s*M(?:\s|$)"),
    re.compile(r"\b(?:LOW|TROE|PLOG)\b"),
)


def _iter_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_mechanism(text):
    """Parse mechanism text into a validated Mechanism."""
    species = []
    names = {}
    reactions = []
    section = None
    saw_version = False
    for lineno, line in _iter_lines(text):
        if line.lower().startswith("format"):
            toks = line.split()
            if len(toks) != 2 or toks[1] != str(FORMAT_VERSION):
                _fail("BadFormatVersion", f"unsupported format line {line!r}", lineno)
            saw_version = True
            continue
        if line.startswith("["):
            if line == "[species]":
                section = "species"
            elif line == "[reactions]":
                section = "reactions"
            else:
                _fail("UnknownSection", f"unknown section {line!r}", lineno)
            continue
        if not saw_version:
            _fail("BadFormatVersion", "missing 'format 1' header", lineno)
        if section == "species":
            sp = _parse_species_line(line, lineno)
            if sp.name in names:
                _fail("DuplicateSpecies", f"species {sp.name!r} already declared", lineno)
            names[sp.name] = len(species)
            species.append(sp)
        elif section == "reactions":
            reactions.append(_parse_reaction_line(line, lineno, names))
        else:
            _fail("UnknownSection", "content before any section header", lineno)
    if not species:
        _fail("NoSpecies", "mechanism declares no species")
    try:
        return Mechanism(species=tuple(species), reactions=tuple(r for r, _ in reactions))
    except KineticsError as exc:
        # Attribute mechanism-level failures to the offending reaction line.
        line = None
        m = re.match(r"reaction (\d+)", str(exc))
        if m:
            line = reactions[int(m.group(1))][1]
        code = "MassImbalance" if "mass balance" in str(exc) else "InvalidMechanism"
        _fail(code, str(exc), line)


def _parse_species_line(line, lineno):
    toks = line.split()
    if len(toks) != 19:
        _fail("BadSpecies",
              f"species line needs name + 18 numbers, got {len(toks)} tokens", lineno)
    name = toks[0]
    nums = [_parse_float(t, lineno) for t in toks[1:]]
    try:
        return Species(name=name, molar_mass=nums[0], t_low=nums[1],
                       t_mid=nums[2], t_high=nums[3],
                       coeffs_low=tuple(nums[4:11]), coeffs_high=tuple(nums[11:18]))
    except KineticsError as exc:
        _fail("BadSpecies", str(exc), lineno)


def _parse_stoich_side(side, lineno, names):
    stoich = {}
    for term in side.split("+"):
        term = term.strip()
        if not term:
            _fail("BadReaction", "empty stoichiometric term", lineno)
        parts = term.split()
        if len(parts) == 1:
            count, name = 1, parts[0]
        elif len(parts) == 2:
            try:
                count = int(parts[0])
            except ValueError:
                _fail("BadReaction", f"bad stoichiometric count {parts[0]!r}", lineno)
            name = parts[1]
        else:
            _fail("BadReaction", f"cannot parse term {term!r}", lineno)
        if count <= 0:
            _fail("BadReaction", f"stoichiometric count must be positive: {term!r}", lineno)
        if name not in names:
            _fail("UnknownSpecies", f"species {name!r} not declared", lineno)
        idx = names[name]
        stoich[idx] = stoich.get(idx, 0) + count
    return stoich


def _parse_reaction_line(line, lineno, names):
    if any(pattern.search(line) for pattern in _UNSUPPORTED_RXN):
        _fail("UnsupportedReactionType",
              "third-body / falloff / pressure-dependent reactions are not supported",
              lineno)
    if "<=>" in line:
        reversible = True
        lhs, rest = line.split("<=>", 1)
    elif "=>" in line:
        reversible = False
        lhs, rest = line.split("=>", 1)
    else:
        _fail("BadReaction", "missing '=>' or '<=>'", lineno)
    explicit_reverse = None
    if "rev:" in rest:
        rest, rev_part = rest.split("rev:", 1)
        if not reversible:
            _fail("BadReaction", "'rev:' given for an irreversible reaction", lineno)
        rev_toks = rev_part.split()
        if len(rev_toks) != 3:
            _fail("BadArrhenius", "reverse Arrhenius needs exactly 3 numbers", lineno)
        explicit_reverse = tuple(_parse_float(t, lineno, "Arrhenius value")
                                 for t in rev_toks)
    rest_toks = rest.split()
    if len(rest_toks) < 4:
        _fail("BadArrhenius", "reaction needs products plus 3 Arrhenius numbers", lineno)
    arrhenius = tuple(_parse_float(t, lineno, "Arrhenius value") for t in rest_toks[-3:])
    rhs_text = " ".join(rest_toks[:-3])
    reactants = _parse_stoich_side(lhs, lineno, names)
    products = _parse_stoich_side(rhs_text, lineno, names)
    try:
        rxn = Reaction(reactants=reactants, products=products, arrhenius=arrhenius,
                       reversible=reversible, explicit_reverse=explicit_reverse)
    except KineticsError as exc:
        _fail("BadReaction", str(exc), lineno)
    return rxn, lineno


def serialize_mechanism(mech):
    """Render a Mechanism back to the text format (round-trips exactly)."""
    lines = [f"format {FORMAT_VERSION}", "", "[species]"]
    for s in mech.species:
        nums = [s.molar_mass, s.t_low, s.t_mid, s.t_high,
                *s.coeffs_low, *s.coeffs_high]
        lines.append(s.name + " " + " ".join(repr(float(v)) for v in nums))
    lines.append("")
    lines.append("[reactions]")
    for rxn in mech.reactions:
        def side(stoich):
            terms = []
            for idx in sorted(stoich):
                nu = stoich[idx]
                name = mech.species[idx].name
                terms.append(name if nu == 1 else f"{nu} {name}")
            return " + ".join(terms)
        arrow = "<=>" if rxn.reversible else "=>"
        line = f"{side(rxn.reactants)} {arrow} {side(rxn.products)} " + \
            " ".join(repr(float(v)) for v in rxn.arrhenius)
        if rxn.explicit_reverse is not None:
            line += " rev: " + " ".join(repr(float(v)) for v in rxn.explicit_reverse)
        lines.append(line)
    return "\n".join(lines) + "\n"


@dataclass(kw_only=True)
class RunConfig(ControllerConfig):
    """One reactor run: initial condition and output settings, plus the
    controller settings it inherits; every value is checked on creation."""

    mechanism: str
    T0: float
    pressure: float
    Y0: dict
    t_final: float
    method: str = "epi3v"
    n_output_samples: int = 200
    sweep_points: list = field(default_factory=list)
    reference_tols: tuple = None

    def __post_init__(self):
        try:
            super().__post_init__()
        except ValueError as exc:
            raise MechIoError("BadConfigValue", str(exc)) from None
        for name in ("T0", "pressure", "t_final"):
            if not 0 < getattr(self, name) < float("inf"):
                raise MechIoError("BadConfigValue", f"{name} must be positive and finite")
        if self.n_output_samples < 1:
            raise MechIoError("BadConfigValue", "n_output_samples must be at least 1")
        if self.method != "epi3v":
            raise MechIoError("BadConfigValue", f"unsupported method {self.method!r} "
                              "(only 'epi3v' is implemented)")
        if self.reference_tols is not None:
            ref_atol, ref_rtol = self.reference_tols
            # Equality is allowed so a sweep can include the reference pair itself
            # (a self-consistency check: that row's error should be ~0).
            if not (ref_atol > 0 and ref_rtol > 0 and all(
                    ref_atol <= atol and ref_rtol <= rtol
                    for atol, rtol in self.sweep_points)):
                raise MechIoError("BadConfigValue",
                                  "reference tolerances must be positive and at least "
                                  "as tight as every sweep point")
        total = sum(self.Y0.values())
        # Written so that a NaN sum fails too.
        if not abs(total - 1.0) <= MASS_SUM_TOL:
            raise MechIoError("MassFractionSum",
                              f"initial mass fractions sum to {total}, not 1")
        self.Y0 = {k: v / total for k, v in self.Y0.items()}


# The one-value config keys: each RunConfig field typed float, int or str,
# under its own name. A field without a default is a required key. Both
# modules that declare the fields postpone annotations, so types are strings.
_SCALAR_KEYS = {f.name: f for f in fields(RunConfig)
                if f.type in ("float", "int", "str")}


def parse_config(text):
    """Parse run-config text (line-oriented 'key value...' records)."""
    values = {}
    Y0 = {}
    sweep = []
    reference = None
    for lineno, line in _iter_lines(text):
        toks = line.split()
        key = toks[0]
        if key == "Y":
            if len(toks) != 3:
                _fail("BadConfigValue", "Y lines are 'Y <species> <fraction>'", lineno)
            name = toks[1]
            if name in Y0:
                _fail("BadConfigValue", f"duplicate Y entry for {name!r}", lineno)
            Y0[name] = _parse_float(toks[2], lineno, "mass fraction")
        elif key == "sweep":
            if len(toks) != 3:
                _fail("BadConfigValue", "sweep lines are 'sweep <atol> <rtol>'", lineno)
            sweep.append((_parse_float(toks[1], lineno), _parse_float(toks[2], lineno)))
        elif key == "reference":
            if len(toks) != 3:
                _fail("BadConfigValue",
                      "reference lines are 'reference <atol> <rtol>'", lineno)
            if reference is not None:
                _fail("BadConfigValue", "duplicate reference line", lineno)
            reference = (_parse_float(toks[1], lineno), _parse_float(toks[2], lineno))
        elif key in values:
            _fail("BadConfigValue", f"duplicate config key {key!r}", lineno)
        elif key not in _SCALAR_KEYS:
            _fail("UnknownKey", f"unknown config key {key!r}", lineno)
        elif len(toks) != 2:
            _fail("BadConfigValue", f"{key} takes one value", lineno)
        elif _SCALAR_KEYS[key].type == "float":
            values[key] = _parse_float(toks[1], lineno, key)
        elif _SCALAR_KEYS[key].type == "int":
            try:
                values[key] = int(toks[1])
            except ValueError:
                _fail("BadNumber", f"cannot parse integer {toks[1]!r}", lineno)
        else:
            values[key] = toks[1]
    for key, f in _SCALAR_KEYS.items():
        if f.default is MISSING and key not in values:
            _fail("MissingKey", f"config lacks required key {key!r}")
    if not Y0:
        _fail("MissingKey", "config declares no initial mass fractions")
    return RunConfig(Y0=Y0, sweep_points=sweep, reference_tols=reference, **values)


def write_csv(path, header, rows):
    """RFC-4180-style CSV with full round-trip float precision.

    The header goes through `csv.writer`, which quotes names that need it.
    Body cells are numbers: a float (np.float64 too) is written in its
    shortest round-trip form, `repr(float(v))`, any other cell as `str(v)`,
    so a string cell must need no quoting.
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(",".join([repr(float(v)) if isinstance(v, float) else str(v)
                                for v in row]) + "\n"
                      for row in rows)


def read_csv(path):
    """Read back a CSV written by write_csv; numeric fields become floats."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        for row in reader:
            parsed = []
            for cell in row:
                try:
                    parsed.append(float(cell))
                except ValueError:
                    parsed.append(cell)
            rows.append(parsed)
    return header, rows
