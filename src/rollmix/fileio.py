"""File formats: population JSON, schema text syntax, canonical reports.

Population files are UTF-8 JSON::

    {"rollouts": [{"action": "alpha",
                   "states": [[1, "a", 0], ...],
                   "terminal": "f1"}, ...],
     "payoffs": {"f1": "3/2", ...}}

States are [class id, tag symbol, copy index] triples and payoffs are
exact rationals written as "p/q" (or plain "p") strings; an exponent,
as in "1e400", may not pass 4300.  Parsing untrusted files runs the full
population validation and reports every violation.

The schema text syntax is ``action,c1,...,ck,tail`` where the tail is a
terminal label or ``#``, and the bare ``#`` is the root pattern.  All
serialisation here is canonical (sorted keys, stable number formatting)
so reports produced from the same inputs and seeds are byte-identical.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Callable, Mapping

from .model import (
    Population,
    Rollout,
    Schema,
    StateTag,
    TaggedState,
    TerminalLabel,
    WILDCARD,
    validate_population,
)

PayoffMap = dict[TerminalLabel, Fraction]


class ParseError(Exception):
    """The file is not well-formed for its format."""


class SchemaSyntaxError(ParseError):
    """Schema text does not follow the grammar; pinpoints the token."""


def is_json_int(value: Any) -> bool:
    """A JSON integer: Python reads ``true`` and ``false`` as ints too."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_digits(text: str) -> bool:
    """ASCII digits only: ``str.isdigit`` also accepts digits ``int`` rejects
    (superscripts) and reads other scripts' digits as numbers."""
    return text.isascii() and text.isdigit()


# Exponents past CPython's default limit on an integer string's digits are
# rejected before Fraction sees them: Fraction("1e10000000") builds
# 10**10000000, which takes seconds.
_MAX_EXPONENT = 4300


def parse_rational(text: Any) -> Fraction:
    if is_json_int(text):
        return Fraction(text)
    if not isinstance(text, str):
        raise ParseError(f"expected a rational string, got {text!r}")
    exponent = text.upper().partition("E")[2].strip().lstrip("+-").replace("_", "")
    if exponent.isdecimal() and (len(exponent) > _MAX_EXPONENT or int(exponent) > _MAX_EXPONENT):
        raise ParseError(f"bad rational {text!r}: exponent beyond {_MAX_EXPONENT}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from None


def _every_digit(convert: Callable[[Any], str], value: Any) -> str:
    """convert(value), retried with CPython's int-to-str digit limit (none
    before 3.10.7) lifted only if it fails, and restored; inputs keep it."""
    try:
        return convert(value)
    except ValueError:
        if not hasattr(sys, "set_int_max_str_digits"):
            raise
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return convert(value)
        finally:
            sys.set_int_max_str_digits(limit)


def format_rational(value: Fraction) -> str:
    return _every_digit(str, Fraction(value))


def read_input(path: str | Path, parse: Callable[[str], Any] = json.loads) -> Any:
    """Parse a UTF-8 input file (as JSON by default); ParseError if it cannot
    be read, is not UTF-8 or does not parse, too deep nesting and integers
    past the int-to-str digit limit included."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError too
        raise ParseError(f"{path}: {exc}") from None


# --- schema text --------------------------------------------------------------


def parse_schema(text: str) -> Schema:
    """Parse ``action,c1,...,ck,tail`` (or bare ``#``) into a Schema."""
    stripped = text.strip()
    if stripped == WILDCARD:
        return Schema()
    tokens = [t.strip() for t in stripped.split(",")]
    if len(tokens) < 2:
        raise SchemaSyntaxError(
            f"schema {text!r} needs an action and a tail (terminal or '#')"
        )
    action = tokens[0]
    if not action or action == WILDCARD or _is_digits(action):
        raise SchemaSyntaxError(f"bad action token {action!r} in {text!r}")
    classes = []
    for tok in tokens[1:-1]:
        try:
            cls = int(tok) if _is_digits(tok) else 0
        except ValueError:  # more digits than int() converts
            cls = 0
        if cls < 1:
            raise SchemaSyntaxError(f"bad class token {tok!r} in {text!r}")
        classes.append(cls)
    tail = tokens[-1]
    if not tail:
        raise SchemaSyntaxError(f"empty tail token in {text!r}")
    if tail != WILDCARD and _is_digits(tail):
        raise SchemaSyntaxError(
            f"tail {tail!r} in {text!r} looks like a class; schemata end in a terminal or '#'"
        )
    return Schema(action, tuple(classes), tail)


def read_schemata_file(path: str | Path) -> list[Schema]:
    """One schema per non-blank line; a leading byte-order mark is dropped."""
    lines = read_input(path, lambda text: text.removeprefix("\ufeff").splitlines())
    return [parse_schema(line) for line in lines if line.strip()]


# --- population files ---------------------------------------------------------


def population_from_json(data: Any) -> tuple[Population, PayoffMap]:
    if not isinstance(data, dict) or "rollouts" not in data:
        raise ParseError("population files are objects with a 'rollouts' list")
    raw_rollouts = data["rollouts"]
    if not isinstance(raw_rollouts, list):
        raise ParseError("'rollouts' must be a list")
    rollouts: list[Rollout] = []
    new = tuple.__new__
    for i, entry in enumerate(raw_rollouts):
        if not isinstance(entry, dict):
            raise ParseError(f"rollout {i}: must be an object")
        try:
            action = entry["action"]
            terminal = entry["terminal"]
        except KeyError as exc:
            raise ParseError(f"rollout {i}: missing field {exc}") from None
        states = entry.get("states", [])
        if not isinstance(states, list):
            raise ParseError(f"rollout {i}: 'states' must be a list")
        if not isinstance(action, str) or not isinstance(terminal, str):
            raise ParseError(f"rollout {i}: action and terminal are strings")
        parsed = []
        for s in states:
            # An entry of exactly an int >= 1, a non-empty str and an int >= 0
            # is built unchecked; any other goes through the checks.
            if type(s) is list and len(s) == 3:
                cls, symbol, copy = s
                if type(cls) is int and cls > 0 and type(symbol) is str and symbol and type(copy) is int and copy >= 0:
                    parsed.append(new(TaggedState, (cls, new(StateTag, (symbol, copy)))))
                    continue
            if not (
                isinstance(s, list)
                and len(s) == 3
                and is_json_int(s[0])
                and isinstance(s[1], str)
                and is_json_int(s[2])
            ):
                raise ParseError(f"rollout {i}: state entries are [class, tag, copy] triples, got {s!r}")
            try:
                parsed.append(TaggedState(s[0], StateTag(s[1], s[2])))
            except ValueError as exc:
                raise ParseError(f"rollout {i}: {exc}") from None
        try:
            rollouts.append(Rollout(action, tuple(parsed), terminal))
        except ValueError as exc:
            raise ParseError(f"rollout {i}: {exc}") from None
    raw_payoffs = data.get("payoffs", {})
    if not isinstance(raw_payoffs, dict):
        raise ParseError("'payoffs' must be an object")
    # Payoffs repeat a few values: parse each distinct str or int once, keyed
    # by type and value.  Any other value (a bool, a float, a list...) is an
    # error, unhashable or not, and goes straight to parse_rational.
    cached = lru_cache(maxsize=None, typed=True)(parse_rational)
    payoffs = {
        name: (cached if type(value) in (str, int) else parse_rational)(value)
        for name, value in raw_payoffs.items()
    }
    return validate_population(rollouts), payoffs


def population_to_json(p: Population, payoffs: Mapping[TerminalLabel, Fraction] | None = None) -> dict:
    return {
        "rollouts": [
            {
                "action": r.action,
                "states": [[s.cls, s.tag.symbol, s.tag.copy] for s in r.states],
                "terminal": r.terminal,
            }
            for r in p.rollouts
        ],
        "payoffs": {
            name: format_rational(value) for name, value in sorted((payoffs or {}).items())
        },
    }


def dump_canonical(data: Any) -> str:
    return _every_digit(lambda d: json.dumps(d, sort_keys=True, indent=2, ensure_ascii=False), data) + "\n"


def population_text(p: Population, payoffs: Mapping[TerminalLabel, Fraction] | None = None) -> str:
    """The bytes of ``dump_canonical(population_to_json(p, payoffs))``, written
    straight from the population: json's indented encoder runs in pure Python."""
    q = encode_basestring  # the escaper json.dumps uses with ensure_ascii=False
    rollouts = []
    for r in p.rollouts:
        states = ",\n".join(
            f"        [\n          {s.cls},\n          {q(s.tag.symbol)},\n          {s.tag.copy}\n        ]"
            for s in r.states
        )
        states = f"[\n{states}\n      ]" if states else "[]"
        rollouts.append(
            f'    {{\n      "action": {q(r.action)},\n      "states": {states},\n'
            f'      "terminal": {q(r.terminal)}\n    }}'
        )
    lines = ",\n".join(f"    {q(k)}: {q(format_rational(v))}" for k, v in sorted((payoffs or {}).items()))
    payoff_block = f"{{\n{lines}\n  }}" if lines else "{}"
    return f'{{\n  "payoffs": {payoff_block},\n  "rollouts": [\n' + ",\n".join(rollouts) + "\n  ]\n}\n"


def save_population(
    path: str | Path, p: Population, payoffs: Mapping[TerminalLabel, Fraction] | None = None
) -> None:
    Path(path).write_text(population_text(p, payoffs), encoding="utf-8")


def load_population(path: str | Path) -> tuple[Population, PayoffMap]:
    """Parse and validate a population file."""
    return population_from_json(read_input(path))
