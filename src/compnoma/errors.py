"""Exception vocabulary shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """A domain object was constructed or used outside its invariants."""


class ConfigError(ValueError):
    """An experiment configuration is unusable as given."""


class ParseError(ConfigError):
    """Config file could not be parsed; message carries line/key context."""


class ValidationError(ConfigError):
    """Config parsed but failed schema or range validation."""


class ConditionViolation(DomainError):
    """A cluster list breaks one of the joint-transmission decode-order rules.

    which = 1: a coordinated user is decoded after a single-cell user.
    which = 2: coordinated users appear in different relative orders
               in two clusters.
    """

    def __init__(self, which: int, cell_id: int, users: tuple[int, ...], detail: str = ""):
        self.which = which
        self.cell_id = cell_id
        self.users = tuple(users)
        msg = f"decode-order condition {which} violated in cell {cell_id} (users {self.users})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class SweepError(RuntimeError):
    """A failure inside a sweep, re-raised with what reproduces it: the master
    seed, the sweep index, the trial index (or a kernel's trial range) and the
    series label."""
