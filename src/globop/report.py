"""Machine-readable pass/fail reports shared by all checkers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Violation:
    message: str
    witness: object = None

    def to_json(self) -> dict:
        return {"message": self.message, "witness": _plain(self.witness)}


@dataclass
class Report:
    suite: str
    violations: list[Violation] = field(default_factory=list)
    ms: float = 0.0
    # what a check covered, e.g. configurations checked; summed by ``extend``
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def add(self, message: str, witness: object = None) -> None:
        self.violations.append(Violation(message, witness))

    def extend(self, other: "Report") -> None:
        self.violations.extend(other.violations)
        for name, n in other.counts.items():
            self.counts[name] = self.counts.get(name, 0) + n

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "pass": self.passed,
            "violations": [v.to_json() for v in self.violations],
            "ms": self.ms,
            "counts": dict(self.counts),
        }


def _plain(x):
    """Best-effort conversion of a witness to JSON-encodable data."""
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    return repr(x)
