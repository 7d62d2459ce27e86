"""Scenario documents: strict JSON parsing and precise report emission.

A scenario document is UTF-8 JSON with ``"schema": 1``.  Parsing is strict:
unknown keys anywhere in the document are rejected, so a typo in a curve
parameter fails loudly instead of silently changing the economics.  Every
node that maps onto a dataclass (a curve, ``agent``, ``principal``,
``options``, a wage grid) is read and written by one walk over the
dataclass's init fields, and every JSON input is decoded by read_json.  All
floating-point output is rendered with 17 significant digits, which
round-trips 64-bit floats exactly, and keys are emitted in a fixed order,
so identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from itertools import accumulate

from .curves import Curve, ExpAffine, LogAffine, Polynomial, Power, Tabulated
from .errors import ContractGameError, DimensionError, ParseError, ValidationError
from .model import (
    ENUMERATION_CAP,
    EPSILON_INVISIBLE,
    TIE_BREAK_POLICIES,
    AgentPreferences,
    Contract,
    ContractFamily,
    EffortInterval,
    EffortProfile,
    PrincipalPreferences,
    Scenario,
    WageGrid,
    scenario_validate,
)

__all__ = [
    "SolverOptions",
    "ScenarioDocument",
    "SweepTable",
    "parse_scenario",
    "read_json",
    "clip",
    "document_from_dict",
    "document_to_dict",
    "curve_from_spec",
    "curve_to_spec",
    "result_to_dict",
    "render_json",
    "emit_report",
]


# Annotations of option fields whose values are checked beyond their type:
# the field walk picks a field's parser by its annotation.
TieBreak = str
Seed = int


@dataclass(frozen=True)
class SolverOptions:
    """Document defaults for the CLI's --epsilon, --tie-break and --seed flags.

    The solver's grid sizes (``contractgame.tables``) and tolerances
    (``contractgame.agent`` and ``contractgame.model``) are fixed module
    constants, not options.
    """

    epsilon_invisible: float = EPSILON_INVISIBLE
    tie_break: TieBreak = "principal-favorable"
    seed: Seed = 0


@dataclass(frozen=True)
class ScenarioDocument:
    scenario: Scenario
    contracts: tuple[Contract, ...]
    contract_family: ContractFamily | None
    options: SolverOptions


@dataclass(frozen=True)
class SweepTable:
    """Plot-ready table; serialized as CSV with one header row."""

    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]


# ---------------------------------------------------------------------------
# strict parsing

QUOTE_CHARS = 100  # the most characters of a value a message quotes


def clip(text: str) -> str:
    """text cut to QUOTE_CHARS characters and "...".  Messages quote a value
    as clip(f"{value!r}"); a document value nested too deeply to quote is
    the ParseError of document_from_dict, which quotes nothing."""
    return text if len(text) <= QUOTE_CHARS else text[:QUOTE_CHARS] + "..."


def _check_keys(obj: dict, allowed, required, path: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ParseError(f"{path}: unknown key {clip(f'{key!r}')}")
    for key in required:
        if key not in obj:
            raise ParseError(f"{path}: missing required key {clip(f'{key!r}')}")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}: expected a number, got {clip(f'{value!r}')}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"{path}: expected a finite number, got {clip(f'{value!r}')}")
    return number


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: expected an integer, got {clip(f'{value!r}')}")
    return value


def _seed(value, path: str) -> int:
    if _integer(value, path) < 0:
        raise ParseError(
            f"{path}: expected a non-negative integer, got {clip(f'{value!r}')}"
        )
    return value


def _tie_break(value, path: str) -> str:
    if value not in TIE_BREAK_POLICIES:
        raise ParseError(f"{path}: {clip(f'{value!r}')} not in {TIE_BREAK_POLICIES}")
    return value


def _number_list(value, path: str) -> list[float]:
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected a list of numbers")
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(value)]


def _number_tuple(value, path: str) -> tuple[float, ...]:
    return tuple(_number_list(value, path))


def _contract_list(value, path: str) -> tuple[Contract, ...]:
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected a list of wage vectors")
    return tuple(
        Contract(tuple(_number_list(w, f"{path}[{i}]"))) for i, w in enumerate(value)
    )


MAX_NESTING = 100  # the deepest array/object nesting read_json decodes
# what the nesting check drops: a string, whose brackets do not count (an
# unclosed one runs to the end of the text), or a run of other characters
_NOT_BRACKETS = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?|[^"\[\]{}]+', re.DOTALL)
_DEPTH_STEP = {"[": 1, "{": 1, "]": -1, "}": -1}


def read_json(where: str, text: str | None = None, parse_int=None):
    """Decode JSON text, or the UTF-8 file named where when text is None.

    NaN and Infinity are refused; parse_int is json.loads' own.  Any
    failure to read or decode (a missing file, bad UTF-8, invalid JSON, an
    integer too long to convert, nesting deeper than MAX_NESTING) is a
    ParseError whose message starts with where.  The nesting limit is
    checked before decoding, so the message does not depend on how deep
    the caller's stack is.
    """

    def reject_constant(name: str):
        raise ParseError(f"{where}: {name} is not a finite number")

    try:
        if text is None:
            with open(where, encoding="utf-8") as handle:
                text = handle.read()
        # up to where json.loads would fail, this depth is the decoder's own
        brackets = map(_DEPTH_STEP.__getitem__, _NOT_BRACKETS.sub("", text))
        if max(accumulate(brackets, initial=0)) > MAX_NESTING:
            raise ParseError(f"{where}: cannot decode: nested deeper than {MAX_NESTING} levels")
        return json.loads(text, parse_constant=reject_constant, parse_int=parse_int)
    except OSError as err:
        raise ParseError(f"{where}: {err}") from err
    except json.JSONDecodeError as err:
        raise ParseError(
            f"{where}: invalid JSON at line {err.lineno} column {err.colno}: "
            f"{err.msg}"
        ) from err
    except (ValueError, RecursionError) as err:
        raise ParseError(f"{where}: cannot decode: {err}") from err


# ---------------------------------------------------------------------------
# the field walk: a document object per dataclass, one key per init field

_CURVE_CLASSES = {
    cls.family: cls for cls in (Polynomial, ExpAffine, LogAffine, Power, Tabulated)
}

# WageGrid's fields that the document names otherwise
_GRID_KEYS = {"lo": "min", "hi": "max"}


def _document_fields(cls, keys=None) -> list:
    """(field, document key) of each init field of cls, in field order."""
    keys = keys or {}
    return [(f, keys.get(f.name, f.name)) for f in fields(cls) if f.init]


def _from_fields(cls, raw, path: str, keys=None, extra=()):
    """cls built from the document object raw.

    A field's annotation picks its parser (_PARSERS).  The fields without a
    default are required, in field order; an absent optional key keeps the
    field's default.  extra names the other keys raw may hold.  A
    ValueError from cls is a ParseError.
    """
    named = _document_fields(cls, keys)
    required = [key for f, key in named if f.default is MISSING]
    _check_keys(raw, {*extra, *(key for _, key in named)}, required, path)
    kwargs = {
        f.name: _PARSERS[f.type](raw[key], f"{path}.{key}")
        for f, key in named
        if key in raw
    }
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise ParseError(f"{path}: {err}") from err


def _to_fields(obj, keys=None) -> dict:
    """The document object of obj, under _from_fields' keys."""
    out = {}
    for f, key in _document_fields(type(obj), keys):
        value = getattr(obj, f.name)
        if isinstance(value, Curve):
            value = curve_to_spec(value)
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def curve_from_spec(spec, path: str) -> Curve:
    if not isinstance(spec, dict):
        raise ParseError(f"{path}: expected a curve object")
    family = spec.get("family")
    cls = _CURVE_CLASSES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise ParseError(
            f"{path}: unknown curve family {clip(f'{family!r}')}; "
            f"expected one of {sorted(_CURVE_CLASSES)}"
        )
    return _from_fields(cls, spec, path, extra=("family",))


def curve_to_spec(curve: Curve) -> dict:
    if _CURVE_CLASSES.get(getattr(curve, "family", None)) is not type(curve):
        raise TypeError(f"cannot serialize curve {curve!r}")
    return {"family": curve.family, **_to_fields(curve)}


_PARSERS = {
    "float": _number,
    "tuple[float, ...]": _number_tuple,
    "Curve": curve_from_spec,
    "TieBreak": _tie_break,
    "Seed": _seed,
}


# ---------------------------------------------------------------------------
# documents

_TOP_REQUIRED = ("schema", "outcomes", "effort_interval", "profile", "agent", "principal")
_TOP_KEYS = {*_TOP_REQUIRED, "contracts", "contract_family", "options"}


def document_from_dict(raw: dict) -> ScenarioDocument:
    """Build and grid-validate a document from parsed JSON.

    A value nested too deeply to walk or quote is a ParseError, caught here
    and not in a wrapper: a document nested nearly as deep as read_json
    decodes has no call level to spare.
    """
    try:
        _check_keys(raw, _TOP_KEYS, _TOP_REQUIRED, "document")
        schema = raw["schema"]
        if isinstance(schema, bool) or not isinstance(schema, int) or schema != 1:
            raise ParseError(f"document: unsupported schema {clip(f'{schema!r}')}")

        outcomes = _number_list(raw["outcomes"], "outcomes")
        bounds = _number_list(raw["effort_interval"], "effort_interval")
        if len(bounds) != 2:
            raise ParseError("effort_interval: expected [lo, hi]")

        if not isinstance(raw["profile"], list):
            raise ParseError("profile: expected a list of curves")
        components = tuple(
            curve_from_spec(spec, f"profile[{i}]")
            for i, spec in enumerate(raw["profile"])
        )
        agent_prefs = _from_fields(AgentPreferences, raw["agent"], "agent")
        principal_prefs = _from_fields(PrincipalPreferences, raw["principal"], "principal")
        contracts = _contract_list(raw.get("contracts", []), "contracts")

        family = None
        if "contract_family" in raw:
            try:
                family = _family_from_dict(raw["contract_family"], len(outcomes))
            except (ParseError, ValidationError):
                raise
            except ContractGameError as err:
                raise ValidationError([err]) from err

        options = _from_fields(SolverOptions, raw.get("options", {}), "options")
    except RecursionError as err:
        raise ParseError("document: nested too deeply") from err

    try:
        scenario = Scenario(
            outcomes=tuple(outcomes),
            interval=EffortInterval(bounds[0], bounds[1]),
            profile=EffortProfile(components),
            agent=agent_prefs,
            principal=principal_prefs,
        )
    except ContractGameError as err:
        raise ValidationError([err]) from err

    issues = scenario_validate(scenario, contracts)
    if issues:
        raise ValidationError(issues)
    return ScenarioDocument(scenario, contracts, family, options)


def _family_from_dict(raw: dict, n_outcomes: int) -> ContractFamily:
    _check_keys(
        raw, {"contracts", "wage_grids", "cap"}, (), "contract_family"
    )
    cap = _integer(raw.get("cap", ENUMERATION_CAP), "contract_family.cap")
    if cap < 1:
        raise ParseError(f"contract_family.cap: expected a positive integer, got {cap}")
    has_list = "contracts" in raw
    has_grids = "wage_grids" in raw
    if has_list == has_grids:
        raise ParseError(
            "contract_family: expected exactly one of 'contracts', 'wage_grids'"
        )
    if has_list:
        contracts = _contract_list(raw["contracts"], "contract_family.contracts")
        for i, c in enumerate(contracts):
            if len(c) != n_outcomes:
                raise ValidationError([DimensionError(
                    f"contract_family.contracts[{i}] has {len(c)} wages for {n_outcomes} outcomes"
                )])
        return ContractFamily(contracts=contracts, cap=cap)
    grids_raw = raw["wage_grids"]
    if not isinstance(grids_raw, list) or len(grids_raw) != n_outcomes:
        raise ParseError(
            f"contract_family.wage_grids: expected {n_outcomes} grids "
            "(one per outcome)"
        )
    grids = tuple(
        _from_fields(WageGrid, g, f"contract_family.wage_grids[{i}]", _GRID_KEYS)
        for i, g in enumerate(grids_raw)
    )
    return ContractFamily(grids=grids, cap=cap)


def parse_scenario(path: str) -> ScenarioDocument:
    """Read, parse, and grid-validate a scenario document from disk."""
    return document_from_dict(read_json(path))


def document_to_dict(doc: ScenarioDocument) -> dict:
    s = doc.scenario
    out = {
        "schema": 1,
        "outcomes": list(s.outcomes),
        "effort_interval": [s.interval.lo, s.interval.hi],
        "profile": [curve_to_spec(c) for c in s.profile.components],
        "agent": _to_fields(s.agent),
        "principal": _to_fields(s.principal),
    }
    if doc.contracts:
        out["contracts"] = [list(c.wages) for c in doc.contracts]
    if doc.contract_family is not None:
        fam = doc.contract_family
        fam_out: dict = {}
        if fam.contracts is not None:
            fam_out["contracts"] = [list(c.wages) for c in fam.contracts]
        else:
            fam_out["wage_grids"] = [_to_fields(g, _GRID_KEYS) for g in fam.grids]
        fam_out["cap"] = fam.cap
        out["contract_family"] = fam_out
    defaults = _to_fields(SolverOptions())
    overrides = {
        key: value
        for key, value in _to_fields(doc.options).items()
        if value != defaults[key]
    }
    if overrides:
        out["options"] = overrides
    return out


# ---------------------------------------------------------------------------
# report conversion

def result_to_dict(result):
    """Convert any solver/report dataclass to a JSON-ready dict.

    Fields are emitted in declaration order; enums become their values, a
    contract its wage list, tuples lists, and nested reports dicts.
    """
    if isinstance(result, dict):
        return result
    if not is_dataclass(result) or isinstance(result, type):
        raise TypeError(f"cannot serialize result of type {type(result).__name__}")
    return {f.name: _jsonable(getattr(result, f.name)) for f in fields(result)}


def _jsonable(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Contract):
        return list(value.wages)
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    if is_dataclass(value):
        return result_to_dict(value)
    return value


# ---------------------------------------------------------------------------
# precise emission

def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x}")
    return format(x, ".17g")


_INDENT = 2


def render_json(value) -> str:
    """Serialize with 17-significant-digit floats, stable key order, indent 2."""
    pieces: list[str] = []
    _render(value, 0, pieces)
    return "".join(pieces)


def _render(value, level: int, out: list[str]) -> None:
    pad = " " * (_INDENT * (level + 1))
    close_pad = " " * (_INDENT * level)
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(_format_float(value))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            out.append(f"{pad}{json.dumps(str(key))}: ")
            _render(item, level + 1, out)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(close_pad + "}")
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(seq):
            out.append(pad)
            _render(item, level + 1, out)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(close_pad + "]")
    else:
        raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def sweep_to_csv(table: SweepTable) -> str:
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(_format_float(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def emit_report(result, *, destination=None) -> None:
    """Write a report to a path (or stdout when None): a SweepTable as CSV,
    anything else as JSON."""
    if isinstance(result, SweepTable):
        text = sweep_to_csv(result)
    else:
        text = render_json(result_to_dict(result)) + "\n"
    if destination is None:
        sys.stdout.write(text)
        return
    try:
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as err:
        raise ContractGameError(f"cannot write {destination}: {err}") from err
