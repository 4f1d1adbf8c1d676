"""Output checks: each compares one result with a value the library did not produce."""

from __future__ import annotations

import math


class CheckLog:
    """Counts checked operations and names the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def close(
        self, name: str, got: float, want: float, atol: float = 0.0, rtol: float = 0.0
    ) -> bool:
        """|got - want| <= atol + rtol * |want|, and both finite."""
        err = abs(got - want)
        ok = math.isfinite(got) and math.isfinite(want) and err <= atol + rtol * abs(want)
        return self.record(name, ok, f"got {got!r}, want {want!r}, error {err:.3e}")

    def below(self, name: str, got: float, limit: float) -> bool:
        ok = math.isfinite(got) and got < limit
        return self.record(name, ok, f"got {got!r}, limit {limit!r}")

    def at_least(self, name: str, got: float, floor: float) -> bool:
        ok = math.isfinite(got) and got >= floor
        return self.record(name, ok, f"got {got!r}, floor {floor!r}")

    def equal(self, name: str, got, want) -> bool:
        return self.record(name, got == want, f"got {got!r}, want {want!r}")
