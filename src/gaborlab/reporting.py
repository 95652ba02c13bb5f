"""Check and report structures with deterministic JSON emission."""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__

# Default check tolerances, one per kind of identity. The CLI's --tol replaces
# all of them at once; integer facts (sizes, dimensions) are compared exactly.
TOL_SPAN = 1e-10  # span and commutant equalities, on orthonormal-basis residuals
TOL_DIMENSION = 1e-9  # dimension and trace identities, norm inequalities
TOL_SPECTRAL = 1e-8  # Bessel bounds and operator norms, relative to the bound


# one check as json.dumps(check.to_dict(), sort_keys=True, indent=2) writes it
# inside a report's checks list
_CHECK_JSON = (
    '{\n      "deviation": %s,\n      "lhs": %s,\n      "name": %s,\n      "passed": %s,'
    '\n      "rhs": %s,\n      "tolerance": %s\n    }'
)


def _json_float(value) -> str:
    """A float as json.dumps writes it (NaN and the infinities included)."""
    value = float(value)
    if value != value:
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "Infinity" if value > 0 else "-Infinity"
    return repr(value)


@dataclass
class Check:
    name: str
    passed: bool
    lhs: float
    rhs: float
    tolerance: float
    deviation: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "tolerance": float(self.tolerance),
            "deviation": float(self.deviation),
        }


def make_check(name: str, lhs: float, rhs: float, tolerance: float) -> Check:
    lhs = float(lhs)
    rhs = float(rhs)
    dev = abs(lhs - rhs)
    return Check(name, dev <= tolerance, lhs, rhs, float(tolerance), dev)


def make_bound_check(name: str, value: float, bound: float, tolerance: float) -> Check:
    """Passes when value <= bound + tolerance; deviation is the overshoot."""
    value = float(value)
    bound = float(bound)
    dev = max(value - bound, 0.0)
    return Check(name, dev <= tolerance, value, bound, float(tolerance), dev)


def flag_check(name: str, passed: bool, deviation: float, tolerance: float) -> Check:
    return Check(name, bool(passed), float(deviation), 0.0, float(tolerance), float(deviation))


@dataclass
class Report:
    command: str
    parameters: dict
    checks: list[Check] = field(default_factory=list)
    seed: int | None = None
    data: dict = field(default_factory=dict)
    version: str = __version__

    def extend(self, checks) -> None:
        self.checks.extend(checks)

    @property
    def total(self) -> int:
        return len(self.checks)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def all_passed(self) -> bool:
        return self.passed == self.total

    def _frame(self) -> dict:
        """The report without its checks."""
        body = {
            "command": self.command,
            "parameters": self.parameters,
            "summary": {
                "total": self.total,
                "passed": self.passed,
                "failed": self.total - self.passed,
            },
            "seed": self.seed,
            "version": self.version,
        }
        if self.data:
            body["data"] = self.data
        return body

    def to_dict(self) -> dict:
        return {**self._frame(), "checks": [c.to_dict() for c in self.checks]}

    def to_json(self) -> str:
        """json.dumps(self.to_dict(), sort_keys=True, indent=2), byte for byte.

        With an indent, json.dumps runs its pure-Python encoder, which is slow
        on a long checks list. Every check has the same six keys, so the
        checks are written from one template and spliced into the encoding of
        the rest, where "checks" sorts first and its empty list opens the text.
        """
        text = json.dumps({**self._frame(), "checks": []}, sort_keys=True, indent=2)
        if not self.checks:
            return text
        items = ",\n    ".join(
            _CHECK_JSON
            % (
                _json_float(c.deviation),
                _json_float(c.lhs),
                encode_basestring_ascii(c.name),
                "true" if c.passed else "false",
                _json_float(c.rhs),
                _json_float(c.tolerance),
            )
            for c in self.checks
        )
        cut = text.index("[") + 1
        return text[:cut] + "\n    " + items + "\n  " + text[cut:]

    def summary_line(self) -> str:
        state = "PASS" if self.all_passed else "FAIL"
        return f"{self.command}: {self.passed}/{self.total} checks passed [{state}]"


def campaign_rng(seed: int, *key: str | int) -> np.random.Generator:
    """Per-item generator: the master seed split by a key path.

    A str part (a campaign name) enters through its CRC32 and an int part as
    itself, so distinct campaigns with the same numeric indices stay
    independent; the rule is stable across platforms and documented here for
    reproduction.
    """
    spawn_key = tuple(
        zlib.crc32(part.encode("utf-8")) if isinstance(part, str) else int(part) for part in key
    )
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))
