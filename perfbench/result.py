"""Parsers for the two JSON documents the benchmark reads back.

- the per-layer metrics the replay binary prints (one flat object of
  metric name to number);
- the benchmark's own result line (`correct`, `attempted`, `failed`,
  `metrics`), as read back by the steadiness check.

Malformed input raises `ResultError`, never another exception.
"""

import json
import math


class ResultError(Exception):
    """Input that is not a well-formed document of the expected shape."""


def _load(text, what):
    if isinstance(text, bytes):
        try:
            text = text.decode()
        except UnicodeDecodeError as e:
            raise ResultError("%s: not UTF-8: %s" % (what, e)) from None
    if not isinstance(text, str):
        raise ResultError("%s: expected text, got %s" % (what, type(text).__name__))
    lines = text.strip().splitlines()
    if not lines:
        raise ResultError("%s: empty" % what)
    try:
        doc = json.loads(lines[-1])
    except ValueError as e:
        raise ResultError("%s: not JSON: %s" % (what, e)) from None
    if not isinstance(doc, dict):
        raise ResultError("%s: expected an object, got %s" % (what, type(doc).__name__))
    return doc


def _number(value, what):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ResultError("%s: expected a number, got %r" % (what, value))
    if not math.isfinite(value):
        raise ResultError("%s: not finite: %r" % (what, value))
    return float(value)


def parse_layers(text, names):
    """The replay's metrics: exactly `names`, each a finite number."""
    doc = _load(text, "replay output")
    missing = sorted(set(names) - set(doc))
    extra = sorted(set(doc) - set(names))
    if missing or extra:
        raise ResultError("replay output: missing %s, unexpected %s" % (missing, extra))
    return {k: _number(v, "replay output %s" % k) for k, v in doc.items()}


def parse_result(text, metrics):
    """A result line whose `metrics` are exactly the names in `metrics`
    (a dict of name to unit). Returns the document with plain-number
    metric values."""
    doc = _load(text, "result line")
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise ResultError("result line: keys %s" % sorted(doc))
    if not isinstance(doc["correct"], bool):
        raise ResultError("result line: correct must be true or false")
    for key in ("attempted", "failed"):
        v = doc[key]
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise ResultError("result line: %s must be a whole number, got %r" % (key, v))
    if doc["attempted"] < 1 or doc["failed"] > doc["attempted"]:
        raise ResultError("result line: %d failed of %d attempted" % (doc["failed"], doc["attempted"]))
    got = doc["metrics"]
    if not isinstance(got, dict) or set(got) != set(metrics):
        raise ResultError("result line: metrics %s, expected %s" % (
            sorted(got) if isinstance(got, dict) else got, sorted(metrics)))
    values = {}
    for name, unit in metrics.items():
        m = got[name]
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            raise ResultError("result line: metric %s must be {value, unit}" % name)
        if m["unit"] != unit:
            raise ResultError("result line: %s unit %r, expected %r" % (name, m["unit"], unit))
        values[name] = _number(m["value"], "result line %s" % name)
    return dict(doc, metrics=values)
