"""The text forms eclab reads, each read here and nowhere else.

An integer is ASCII digits with an optional leading '-', after stripping
whitespace; a rational is an integer or "a/b" of two integers, never a
decimal. Parameters are "key=value" items with keys and values stripped; a
document holds one item per line and skips blank lines and '#' comments.
Each reader decides how its items are separated and which keys it takes;
`key_values` then rejects a key given twice, an unknown key and a missing
key, in that order. Every malformed text raises ValueError, its message
led by the name of what was being read.

Readers: process models (`processes.parse_model_spec`), ensembles
(`ensembles.parse_ensemble_spec`), constraints (`complexity.Constraint.parse`)
and the CLI's number flags, number lists and --config files.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

__all__ = ["parse_int", "parse_fraction", "pairs", "key_values", "document_lines"]


def parse_int(text: str, what: str) -> int:
    """An integer written in ASCII digits with an optional leading '-', after
    stripping whitespace: int() alone would also take '1_0', '+1' and
    non-ASCII digits."""
    text = text.strip()
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{what}: expected an integer, got {text!r}")
    return int(text)


def parse_fraction(text: str, what: str) -> Fraction:
    """A rational written as an integer or "a/b"."""
    text = text.strip()
    if "." in text:
        raise ValueError(f"{what}: rationals must be written a/b, not decimals")
    try:
        if "/" in text:
            a, b = text.split("/")
            return Fraction(parse_int(a, what), parse_int(b, what))
        return Fraction(parse_int(text, what))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{what}: cannot parse rational {text!r}") from exc


def pairs(items: Iterable[str], what: str) -> list[tuple[str, str]]:
    """Each "key=value" item as a (key, value) pair, both stripped."""
    out = []
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"{what}: expected key=value, got {item!r}")
        out.append((key.strip(), value.strip()))
    return out


def key_values(
    items: Iterable[tuple[str, str]],
    what: str,
    keys: Optional[Iterable[str]] = None,
    required: Iterable[str] = (),
) -> dict[str, str]:
    """The (key, value) items as a dict. Rejects, in this order, a key given
    twice, keys outside `keys` (any key is taken when it is None) and a
    missing `required` key."""
    kv: dict[str, str] = {}
    for key, value in items:
        if key in kv:
            raise ValueError(f"{what}: key {key!r} given twice")
        kv[key] = value
    if keys is not None:
        unknown = sorted(set(kv) - set(keys))
        if unknown:
            raise ValueError(f"{what}: unknown keys {unknown}")
    for key in required:
        if key not in kv:
            raise ValueError(f"{what}: missing key {key!r}")
    return kv


def document_lines(text: str) -> list[str]:
    """The stripped lines of a document, without blank lines and '#' comments."""
    return [line for line in map(str.strip, text.splitlines()) if line and not line.startswith("#")]
