"""Verification reports: per-identity pass/fail records with exact
counterexamples, serialized to canonical deterministic JSON.

Every identity is compared as two tables on its basis inputs
(VerificationReport.check_same). A counterexample records the first
differing inputs and, within them, the first differing multi-index of
the output, both in lexicographic order, and the exact left/right
coefficients there: {"inputs": [...], "index": [...], "lhs": "...",
"rhs": "..."}. An identity with no inputs, between two tensors, has no
"inputs" key. Sides of different shapes fail with the counterexample
{}.
"""

from __future__ import annotations

import json
import time
from typing import List, Optional

from .algebra import as_table, first_mismatch
from .fields import Field


def scalar_str(field: Field, c) -> str:
    num, den = field.to_pair(c)
    return "%d/%d" % (num, den) if den != 1 else "%d" % num


class CheckRecord:
    """Outcome of one identity check."""

    def __init__(self, tag: str, passed: bool, counterexample: Optional[dict] = None,
                 seconds: float = 0.0):
        self.tag = tag
        self.passed = passed
        self.counterexample = counterexample
        self.seconds = seconds

    def as_dict(self, include_timing: bool = False) -> dict:
        out = {"tag": self.tag, "passed": self.passed}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if include_timing:
            out["seconds"] = self.seconds
        return out

    def __repr__(self):
        return "CheckRecord(%s, %s)" % (self.tag, "pass" if self.passed else "FAIL")


class VerificationReport:
    """An ordered collection of check records plus a header."""

    def __init__(self, subject: str, header: Optional[dict] = None):
        self.subject = subject
        self.header = dict(header or {})
        self.records: List[CheckRecord] = []

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def add(self, record: CheckRecord) -> CheckRecord:
        self.records.append(record)
        return record

    def check_same(self, tag: str, lhs, rhs) -> CheckRecord:
        """Check that two sides agree on every basis input. Each side is
        an InputTable (algebra.py), the two sides of an axiom as built by
        its side-builder there, or anything as_table reads as one: a
        LegMul on its pairs (i, j), a LinearMap on its domain indices m,
        a Tensor as a table with no inputs. Tables of different shapes
        fail. The sides are compared one leading input at a time."""
        t0 = time.perf_counter()
        lhs, rhs = as_table(lhs), as_table(rhs)
        if lhs.shape != rhs.shape:
            return self.check_bool(tag, False)
        bad = first_mismatch(lhs, rhs)
        rec = CheckRecord(tag, bad is None)
        if bad is not None:
            inputs, index, a, b = bad
            rec.counterexample = {
                "index": list(index), "lhs": scalar_str(lhs.field, a),
                "rhs": scalar_str(lhs.field, b)}
            if lhs.dims:
                rec.counterexample["inputs"] = list(inputs)
        rec.seconds = time.perf_counter() - t0
        return self.add(rec)

    def check_bool(self, tag: str, passed: bool, detail: Optional[dict] = None) -> CheckRecord:
        return self.add(CheckRecord(tag, passed, None if passed else (detail or {})))

    def extend(self, other: "VerificationReport", prefix: str = "") -> None:
        for r in other.records:
            self.add(CheckRecord(prefix + r.tag, r.passed, r.counterexample, r.seconds))

    def as_dict(self, include_timing: bool = False) -> dict:
        return {
            "subject": self.subject,
            "header": self.header,
            "passed": self.passed,
            "checks": [r.as_dict(include_timing) for r in self.records],
        }

    def to_json(self, pretty: bool = False, include_timing: bool = False) -> str:
        doc = self.as_dict(include_timing)
        if pretty:
            return json.dumps(doc, indent=2, sort_keys=True) + "\n"
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def summary_lines(self) -> List[str]:
        out = []
        for r in self.records:
            out.append("%-12s %s" % (r.tag, "pass" if r.passed else "FAIL"))
        return out
