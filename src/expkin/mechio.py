"""Parsing and serialization of mechanism files and run configs, and the
CSV writer the CLI writes its outputs with.

The mechanism format is a sectioned line-oriented plain-text format
(documented in docs/format.md):

    format 1

    [species]
    # name  W  T_low T_mid T_high  a1..a7 (low)  a1..a7 (high)
    F  0.030  200 1000 6000  3.5 0 0 0 0 45000 10  3.5 0 0 0 0 45000 10

    [reactions]
    F + X => 2 X   1.0e8  0  8.0e4
    A <=> B        1.0e3  0.5  1.0e3
"""
from __future__ import annotations

import csv
import re
from dataclasses import MISSING, dataclass, field, fields

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
# refused when any one matches. `_parse_reaction_line` searches a pattern
# only when the line holds a literal no match can lack ("(", "M", or one of
# the keywords): a substring test costs a small part of a search.
_UNSUPPORTED_RXN = (
    re.compile(r"\(\+\s*\w+\s*\)"),
    re.compile(r"(?:^|\s)\+\s*M(?:\s|$)"),
    re.compile(r"\b(?:LOW|TROE|PLOG)\b"),
)


def _iter_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if line:
            yield lineno, line


def _parse_floats(toks, line, what="number"):
    """The tokens `toks` as a tuple of floats; the first that does not parse
    is refused as `_parse_float` refuses it."""
    try:
        return tuple(map(float, toks))
    except ValueError:
        for tok in toks:
            _parse_float(tok, line, what)
        raise


def parse_mechanism(text):
    """Parse mechanism text into a validated Mechanism."""
    species = []
    names = {}
    reactions = []
    reaction_lines = []
    section = None
    records = _iter_lines(text)
    lineno, line = next(records, (None, ""))
    if line.lower().split() != ["format", str(FORMAT_VERSION)]:
        _fail("BadFormatVersion", f"first record {line!r} is not the 'format 1' header", lineno)
    for lineno, line in records:
        if line.startswith("["):
            if line == "[species]":
                section = "species"
            elif line == "[reactions]":
                section = "reactions"
            else:
                _fail("UnknownSection", f"unknown section {line!r}", lineno)
            continue
        if section == "species":
            sp = _parse_species_line(line, lineno)
            if sp.name in names:
                _fail("DuplicateSpecies", f"species {sp.name!r} already declared", lineno)
            names[sp.name] = len(species)
            species.append(sp)
        elif section == "reactions":
            reactions.append(_parse_reaction_line(line, lineno, names))
            reaction_lines.append(lineno)
        else:
            _fail("UnknownSection", "content before any section header", lineno)
    if not species:
        _fail("NoSpecies", "mechanism declares no species")
    try:
        return Mechanism(species=tuple(species), reactions=tuple(reactions))
    except KineticsError as exc:
        # The species were checked above, so the one check Mechanism can
        # fail here is a reaction's mass balance; attribute it to its line.
        _fail("MassImbalance", str(exc), reaction_lines[exc.reaction])


def _parse_species_line(line, lineno):
    toks = line.split()
    if len(toks) != 19:
        _fail("BadSpecies",
              f"species line needs name + 18 numbers, got {len(toks)} tokens", lineno)
    nums = _parse_floats(toks[1:], lineno)
    try:
        # name, molar mass, t_low, t_mid, t_high, low and high coefficients
        return Species(toks[0], *nums[:4], nums[4:11], nums[11:])
    except KineticsError as exc:
        _fail("BadSpecies", str(exc), lineno)


def _parse_stoich_side(side, lineno, names, single_spaced=False):
    """{species index: count} of the '+'-joined terms of `side`, a repeated
    species' counts summed. A diagnostic quotes its term stripped or, if
    `single_spaced`, with its tokens joined by single spaces."""
    stoich = {}
    for term in side.split("+"):
        parts = term.split()
        if len(parts) == 1:
            count, name = 1, parts[0]
        elif len(parts) == 2:
            count, name = parts
            try:
                count = int(count)
            except ValueError:
                _fail("BadReaction", f"bad stoichiometric count {count!r}", lineno)
            if count <= 0:
                term = " ".join(parts) if single_spaced else term.strip()
                _fail("BadReaction", f"stoichiometric count must be positive: {term!r}",
                      lineno)
        elif not parts:
            _fail("BadReaction", "empty stoichiometric term", lineno)
        else:
            term = " ".join(parts) if single_spaced else term.strip()
            _fail("BadReaction", f"cannot parse term {term!r}", lineno)
        idx = names.get(name)
        if idx is None:
            _fail("UnknownSpecies", f"species {name!r} not declared", lineno)
        stoich[idx] = stoich.get(idx, 0) + count
    return stoich


def _parse_reaction_line(line, lineno, names):
    falloff, third_body, keyword = _UNSUPPORTED_RXN
    if (("(" in line and falloff.search(line))
            or ("M" in line and third_body.search(line))
            or (("LOW" in line or "TROE" in line or "PLOG" in line)
                and keyword.search(line))):
        _fail("UnsupportedReactionType",
              "third-body / falloff / pressure-dependent reactions are not supported",
              lineno)
    if "rev:" in line:
        _fail("UnsupportedReactionType",
              "explicit reverse fits ('rev:') are not supported; reverse rates "
              "come from detailed balance", lineno)
    if "<=>" in line:
        reversible = True
        lhs, rest = line.split("<=>", 1)
    elif "=>" in line:
        reversible = False
        lhs, rest = line.split("=>", 1)
    else:
        _fail("BadReaction", "missing '=>' or '<=>'", lineno)
    # The products' text, then the three Arrhenius numbers.
    rest = rest.rsplit(None, 3)
    if len(rest) < 4:
        _fail("BadArrhenius", "reaction needs products plus 3 Arrhenius numbers", lineno)
    arrhenius = _parse_floats(rest[1:], lineno, "Arrhenius value")
    reactants = _parse_stoich_side(lhs, lineno, names)
    # `rest[0]` keeps the line's spacing; a diagnostic quotes a product
    # term with single spaces between its tokens.
    products = _parse_stoich_side(rest[0], lineno, names, single_spaced=True)
    try:
        return Reaction(reactants, products, arrhenius, reversible)
    except KineticsError as exc:
        _fail("BadReaction", str(exc), lineno)


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
        lines.append(f"{side(rxn.reactants)} {arrow} {side(rxn.products)} "
                     + " ".join(repr(float(v)) for v in rxn.arrhenius))
    return "\n".join(lines) + "\n"


@dataclass
class RunConfig:
    """One reactor run: initial condition, controller tolerances and output
    settings. Every config key but Y, sweep and reference is a field of the
    same name; every value is checked on creation."""

    mechanism: str
    T0: float
    pressure: float
    Y0: dict
    t_final: float
    atol: float = 1.0e-10
    rtol: float = 1.0e-8
    h0: float = None             # default: 1e-10 * t_final
    method: str = "epi3v"
    n_output_samples: int = 200
    sweep_points: list = field(default_factory=list)
    reference_tols: tuple = None

    def __post_init__(self):
        tols = [(self.atol, self.rtol), *self.sweep_points]
        if self.reference_tols is not None:
            tols.append(self.reference_tols)
        for atol, rtol in tols:
            # Written so that NaN fails too.
            if not (0 < atol < float("inf") and 0 < rtol < float("inf")):
                raise MechIoError("BadConfigValue", "tolerances must be positive "
                                  f"and finite, got {atol} {rtol}")
        # With h0 = NaN the march would never end.
        for name in ("T0", "pressure", "t_final", "h0"):
            value = getattr(self, name)
            if value is not None and not 0 < value < float("inf"):
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
            if not all(ref_atol <= atol and ref_rtol <= rtol
                       for atol, rtol in self.sweep_points):
                raise MechIoError("BadConfigValue",
                                  "reference tolerances must be at least as tight "
                                  "as every sweep point")
        total = sum(self.Y0.values())
        # Written so that a NaN sum fails too.
        if not abs(total - 1.0) <= MASS_SUM_TOL:
            raise MechIoError("MassFractionSum",
                              f"initial mass fractions sum to {total}, not 1")
        for name, frac in self.Y0.items():
            if frac < 0:
                raise MechIoError("BadConfigValue",
                                  f"mass fraction of {name!r} is negative: {frac}")
        self.Y0 = {k: v / total for k, v in self.Y0.items()}


# The one-value config keys: each RunConfig field typed float, int or str,
# under its own name. A field without a default is a required key. This
# module postpones annotations, so types are strings.
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
    so a string cell must need no quoting. A Python float, the common cell,
    is tested for first and needs no conversion.
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(",".join([repr(v) if type(v) is float
                                else repr(float(v)) if isinstance(v, float)
                                else str(v) for v in row]) + "\n"
                      for row in rows)
