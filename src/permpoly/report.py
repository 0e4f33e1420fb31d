"""Check reports: deterministic text for humans, canonical JSON for tools.

Text output carries no timing, so identical inputs produce identical
bytes; elapsed milliseconds appear only in the JSON payload.
"""

from __future__ import annotations

import json
from fractions import Fraction


def jsonable(value):
    """Canonical JSON-friendly form of report values."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return "%d/%d" % (value.numerator, value.denominator)
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((jsonable(v) for v in value), key=repr)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in sorted(value.items())}
    return str(value)


def render(value) -> str:
    return json.dumps(jsonable(value), separators=(", ", ": "))


class Check:
    def __init__(self, name, expected, computed, passed):
        self.name = name
        self.expected = expected
        self.computed = computed
        self.passed = passed

    def line(self) -> str:
        return "[%s] %s: expected %s, computed %s" % (
            "PASS" if self.passed else "FAIL", self.name,
            render(self.expected), render(self.computed))


class Report:
    def __init__(self, scenario: str):
        self.scenario = scenario
        self.checks = []
        self.elapsed_ms = None

    def check(self, name, expected, computed, passed=None) -> bool:
        if passed is None:
            passed = expected == computed
        self.checks.append(Check(name, expected, computed, bool(passed)))
        return bool(passed)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def text(self) -> str:
        lines = ["scenario: %s" % self.scenario]
        lines.extend(c.line() for c in self.checks)
        lines.append("result: %s (%d/%d checks)" % (
            "PASS" if self.passed else "FAIL",
            sum(1 for c in self.checks if c.passed), len(self.checks)))
        return "\n".join(lines) + "\n"

    def payload(self) -> dict:
        return {
            "scenario": self.scenario,
            "checks": [
                {"name": c.name,
                 "expected": jsonable(c.expected),
                 "computed": jsonable(c.computed),
                 "pass": c.passed}
                for c in self.checks
            ],
            "pass": self.passed,
            "elapsed_ms": 0 if self.elapsed_ms is None else int(self.elapsed_ms),
        }


def canonical_json(payload) -> str:
    """Fixed-format serialization: parsing and re-serializing a report
    yields the same bytes."""
    return json.dumps(payload, indent=2, separators=(",", ": ")) + "\n"
