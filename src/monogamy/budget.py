"""Dense-matrix budget guard for d^n-sized constructions.

The default cap is d^n <= 4096; the MONOGAMY_BUDGET environment variable
overrides it. A cap below 1 is a ValueError. Oversized requests raise
BudgetExceededError instead of silently switching algorithms;
`within_budget` selects the points of a grid that a cap allows, by the
same rule.
"""

from __future__ import annotations

import os

DEFAULT_BUDGET = 4096
ENV_VAR = "MONOGAMY_BUDGET"


class BudgetExceededError(Exception):
    """Raised when a requested d^n exceeds the dense-matrix budget."""


def current_budget(override: int | None = None) -> int:
    """The cap: `override` (--budget, budget=) if given, else the environment, else the default."""
    if override is not None:
        cap, source = int(override), "budget"
    else:
        env = os.environ.get(ENV_VAR)
        if env is None:
            return DEFAULT_BUDGET
        try:
            cap, source = int(env), ENV_VAR
        except ValueError:
            raise ValueError(f"{ENV_VAR} must be an integer, got {env!r}") from None
    if cap < 1:
        raise ValueError(f"{source} must be at least 1, got {cap}")
    return cap


def within_budget(points, cap: int) -> list[tuple[int, int]]:
    """The (n, d) points whose d^n-sized data fits the cap: d^n <= cap.

    A point with n < 0 has no d^n-sized data, so it fits; its caller
    rejects it as a usage error (0 ** -1 would raise ZeroDivisionError).
    """
    return [(n, d) for n, d in points if n < 0 or d ** n <= cap]


def check_budget(n: int, d: int, override: int | None = None) -> None:
    cap = current_budget(override)
    if not within_budget([(n, d)], cap):
        raise BudgetExceededError(
            f"d^n = {d}^{n} = {d**n} exceeds the dense-matrix budget {cap}; "
            f"set {ENV_VAR} to raise the cap"
        )
