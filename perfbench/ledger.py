"""Failure accounting and output checks for benchmark operations.

Every timed call the benchmark makes is one operation. An operation fails
when it raises or when a check on its output fails; either way it counts in
``failed`` and the run is reported as incorrect.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")


class CheckFailure(Exception):
    """An operation returned, but its output is wrong."""


class Ledger:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, name: str, op: Callable[[], T]) -> T | None:
        """Run one operation; count it, and count it failed if it raises."""
        self.attempted += 1
        try:
            return op()
        except Exception as exc:  # every failure of the program is counted, not fatal
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class DigestBook:
    """Output digests that must repeat exactly across repeats of one seed."""

    def __init__(self) -> None:
        self._seen: dict[str, str] = {}

    def check(self, key: str, data: bytes) -> str:
        digest = hashlib.sha256(data).hexdigest()
        first = self._seen.setdefault(key, digest)
        if first != digest:
            raise CheckFailure(f"{key} digest {digest[:12]} differs from first repeat {first[:12]}")
        return digest


def check_finite(name: str, values: Iterable[float]) -> None:
    for i, v in enumerate(values):
        if not math.isfinite(v):
            raise CheckFailure(f"{name}[{i}] is not finite: {v}")


def check_unit_interval(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise CheckFailure(f"{name} = {value} is outside [0, 1]")
