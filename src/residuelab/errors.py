"""Bad outside input: the errors that name it, and readers that return a parsed
JSON field as the type asked for or raise a ScenarioError at the field's path.
Imports nothing from the package, so every module may import it at the top.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple


class InputError(ValueError):
    """Bad input, named in the message; the CLI exits 2 on it and 3 on any other error."""


class ScenarioError(InputError):
    """Validation failure, carrying the path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def _typed(v, kind, path: str, message: str, length: Optional[int] = None):
    """v, when it is a `kind` (of `length` items, when given); else ScenarioError(path,
    message).  A `%r` in the message stands for v's repr, built only on failure."""
    if not isinstance(v, kind) or length is not None and len(v) != length:
        raise ScenarioError(path, message % (v,) if "%r" in message else message)
    return v


def _rational(v, path: str) -> Fraction:
    # `type(x) is int`, not isinstance: JSON true and false parse to bools
    if isinstance(v, (list, tuple)) and len(v) == 2 and all(type(x) is int for x in v):
        if v[1] == 0:
            raise ScenarioError(path, "zero denominator")
        return Fraction(v[0], v[1])
    if type(v) is int:
        return Fraction(v)
    raise ScenarioError(path, f"expected rational as [num, den], got {v!r}")


def _int(v, path: str, minimum: Optional[int] = None) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise ScenarioError(path, f"expected integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ScenarioError(path, f"must be >= {minimum}, got {v}")
    return v


def _matrix(rows, nrows: int, ncols: int, path: str) -> Tuple[Tuple[int, ...], ...]:
    """`nrows` rows of `ncols` nonnegative integers."""
    out = []
    for ri, row in enumerate(_typed(rows, list, path, f"expected {nrows} rows", nrows)):
        row = _typed(row, list, f"{path}[{ri}]", f"expected {ncols} entries", ncols)
        out.append(tuple(_int(v, f"{path}[{ri}][{j}]", 0) for j, v in enumerate(row)))
    return tuple(out)
