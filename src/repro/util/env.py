"""Warn-and-default parsing for ``REPRO_*`` numeric environment variables.

Configuration knobs read from the environment (worker counts, timeouts,
cache capacities, daemon queue depths) must never take the process down:
a typo in ``REPRO_COMPILE_WORKERS=eight`` used to surface as a bare
``ValueError`` deep inside :func:`repro.core.service.compile_many`, far
from the actual mistake.  :func:`env_int` / :func:`env_float` centralize
the policy instead: a malformed or out-of-range value emits one
:class:`EnvVarWarning` naming the variable and the offending text, bumps
the ``env.parse_errors`` counter, and falls back to the documented
default — the library behaves exactly as if the variable were unset.

An unset or empty variable returns the default silently (that is the
normal "not configured" state, not an error).
"""

from __future__ import annotations

import math
import os
import shlex
import warnings
from typing import List, Optional, Union

__all__ = ["EnvVarWarning", "env_int", "env_float", "env_flags"]


class EnvVarWarning(UserWarning):
    """A ``REPRO_*`` environment variable was malformed and was ignored."""


def _warn(name: str, raw: str, problem: str, default) -> None:
    from repro.instrument import INSTR

    INSTR.count("env.parse_errors")
    INSTR.count(f"env.parse_errors.{name}")
    warnings.warn(
        f"ignoring {name}={raw!r}: {problem}; using default {default!r}",
        EnvVarWarning,
        stacklevel=4,
    )


def _env_number(name: str, default, convert, what: str,
                minimum: Optional[Union[int, float]]):
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = convert(raw.strip())
    except (ValueError, OverflowError):
        _warn(name, raw, f"not {what}", default)
        return default
    if isinstance(value, float) and math.isnan(value):
        _warn(name, raw, f"not {what}", default)
        return default
    if minimum is not None and value < minimum:
        _warn(name, raw, f"must be >= {minimum}", default)
        return default
    return value


def env_int(name: str, default: int, *,
            minimum: Optional[int] = None) -> int:
    """``int(os.environ[name])`` with warn-and-default error handling.

    Returns ``default`` when the variable is unset, empty, non-integer
    text, or below ``minimum`` (the latter two warn with
    :class:`EnvVarWarning` and count ``env.parse_errors``)."""
    return _env_number(name, default, int, "an integer", minimum)


def env_float(name: str, default: float, *,
              minimum: Optional[float] = None) -> float:
    """``float(os.environ[name])`` with warn-and-default error handling.

    Same contract as :func:`env_int`; NaN is treated as malformed."""
    return _env_number(name, default, float, "a number", minimum)


def env_flags(name: str) -> List[str]:
    """Shell-style flag list from ``os.environ[name]`` (``shlex.split``).

    Unset or empty returns ``[]`` silently; an unparseable value (e.g. an
    unterminated quote) warns with :class:`EnvVarWarning`, counts
    ``env.parse_errors``, and returns ``[]`` — exactly as if the variable
    were unset."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return []
    try:
        return shlex.split(raw)
    except ValueError as e:
        _warn(name, raw, f"not a parseable flag list ({e})", [])
        return []
