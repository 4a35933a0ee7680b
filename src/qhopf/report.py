"""Verification reports: per-identity pass/fail records with exact
counterexamples, serialized to canonical deterministic JSON.

A counterexample records the quantified basis inputs, the first
differing multi-index in lexicographic order, and the exact left/right
coefficients at that index.
"""

from __future__ import annotations

import itertools
import json
import time
from typing import List, Optional, Sequence

from .algebra import LegMul
from .fields import Field
from .tensor import Tensor


def scalar_str(field: Field, c) -> str:
    num, den = field.to_pair(c)
    return "%d/%d" % (num, den) if den != 1 else "%d" % num


def first_difference(lhs: Tensor, rhs: Tensor) -> Optional[dict]:
    """First multi-index (lex order) where two tensors differ."""
    if lhs == rhs:
        return None
    keys = sorted(set(lhs.data) | set(rhs.data))
    for idx in keys:
        a = lhs.coeff(idx)
        b = rhs.coeff(idx)
        if a != b:
            return {
                "index": list(idx),
                "lhs": scalar_str(lhs.field, a),
                "rhs": scalar_str(rhs.field, b),
            }
    return None


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

    def check_equal(self, tag: str, lhs: Tensor, rhs: Tensor,
                    inputs: Optional[Sequence[int]] = None) -> CheckRecord:
        t0 = time.perf_counter()
        diff = first_difference(lhs, rhs)
        rec = CheckRecord(tag, diff is None)
        if diff is not None:
            if inputs is not None:
                diff = dict(diff)
                diff["inputs"] = list(inputs)
            rec.counterexample = diff
        rec.seconds = time.perf_counter() - t0
        return self.add(rec)

    def check_quantified(self, tag: str, inputs_iter, pair_fn) -> CheckRecord:
        """Check pair_fn(inputs) -> (lhs, rhs) over all quantified inputs,
        recording the first counterexample in iteration order."""
        t0 = time.perf_counter()
        for inputs in inputs_iter:
            lhs, rhs = pair_fn(*inputs)
            diff = first_difference(lhs, rhs)
            if diff is not None:
                diff["inputs"] = list(inputs)
                rec = CheckRecord(tag, False, diff, time.perf_counter() - t0)
                return self.add(rec)
        return self.add(CheckRecord(tag, True, None, time.perf_counter() - t0))

    def check_same(self, tag: str, lhs, rhs) -> CheckRecord:
        """Check that two structure maps agree on every basis input: two
        LegMuls on every pair (i, j), or two LinearMaps on every domain
        index m. Equal tables pass with no input scanned, and maps of
        different shapes fail; otherwise the inputs are scanned in
        lexicographic order as by check_quantified, both sides read on
        the output spaces of lhs."""
        if isinstance(lhs, LegMul):
            def shape(f):
                return (f.left.dim, f.right.dim, f.out.dim)

            def row(f, *key):
                return {(k,): c for k, c in f.table.get(key, {}).items()}

            spaces, same = (lhs.out,), lhs.table == rhs.table
            inputs = itertools.product(range(lhs.left.dim), range(lhs.right.dim))
        else:
            def shape(f):
                return (f.domain.dim,) + tuple(b.dim for b in f.codomain)

            def row(f, m):
                return f.cols.get(m, {})

            spaces, same = lhs.codomain, lhs.cols == rhs.cols
            inputs = ((m,) for m in range(lhs.domain.dim))
        if shape(lhs) != shape(rhs):
            return self.check_bool(tag, False)
        field = lhs.field
        return self.check_quantified(
            tag, () if same else inputs,
            lambda *key: (Tensor(spaces, row(lhs, *key), field),
                          Tensor(spaces, row(rhs, *key), field)))

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
