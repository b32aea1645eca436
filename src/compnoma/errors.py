"""The package's two exceptions, one per failing exit code, and the kind rule of every config field."""

from __future__ import annotations

from dataclasses import fields
from sys import float_info


def finite_number(v) -> bool:  # an int only if a float holds it exactly, so float() keeps its value
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= float_info.max and v == float(v)


# what a config field's value must be, by its annotation; an int stands for a float, a bool for neither
KINDS = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a finite number, exact as a float", finite_number),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple[str, ...]": ("a tuple of strings (a list in JSON)",
                        lambda v: isinstance(v, tuple) and all(isinstance(s, str) for s in v)),
}


def check_kinds(obj) -> None:
    """Raise ConfigError naming the first field of dataclass obj not of its kind: KINDS'
    for its annotation or, for a nested dataclass, an instance of the class of its default."""
    for f in fields(obj):
        what, ok = KINDS.get(f.type) or (f"a {f.type}", lambda v: isinstance(v, type(f.default)))
        if not ok(getattr(obj, f.name)):
            raise ConfigError(f"{f.name} must be {what}, got {getattr(obj, f.name)!r}")


class ConfigError(ValueError):
    """An input was rejected (the CLI's exit 1): an unreadable config file, a value
    of the wrong kind or out of range, or an unknown choice; the message names it."""


class SweepError(RuntimeError):
    """A failure inside a sweep, re-raised with what reproduces it: the master
    seed, the sweep index, the trial index (or a kernel's trial range) and the
    series label."""
