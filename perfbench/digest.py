"""Digests of the deterministic bytes an hprc-exp run leaves behind.

A run's digest maps every file under its `out/` and `trace/`
directories, plus the text the run printed (`stdout`), to
`"<crc32>:<length>"` of its bytes. Two parts of a traced run carry
wall-clock time and are normalized first:

- `<id>.metrics.json` is digested without its `spans` list;
- the manifest is digested without the lines that seal a
  `*.metrics.json` (their CRC covers the spans);
- the `.crc` sidecar of a metrics file is not compared by value, only
  checked to agree with the metrics file it seals.
"""

import json
import os
import zlib

RUN_DIRS = ("out", "trace")


class DigestError(Exception):
    """A run directory that cannot be digested (unreadable or malformed)."""


def _tag(data):
    return "%08x:%d" % (zlib.crc32(data), len(data))


def _metrics_sans_spans(data, rel):
    try:
        doc = json.loads(data)
    except (ValueError, UnicodeDecodeError) as e:
        raise DigestError("%s: not JSON: %s" % (rel, e)) from None
    if not isinstance(doc, dict) or "spans" not in doc:
        raise DigestError("%s: no spans list" % rel)
    del doc["spans"]
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _manifest_sans_metrics_seals(data):
    keep = [
        line
        for line in data.split(b"\n")
        if not (b'"ev":"artifact-sealed"' in line and b'.metrics.json"' in line)
    ]
    return b"\n".join(keep)


def file_tag(path, rel=None):
    """The digest entry for one file; `rel`, its path within a run,
    selects the normalization (see the module doc)."""
    rel = rel or os.path.basename(path)
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise DigestError("%s: %s" % (rel, e)) from None
    if rel.endswith(".metrics.json"):
        return _tag(_metrics_sans_spans(data, rel))
    if rel.endswith(".manifest.jsonl"):
        return _tag(_manifest_sans_metrics_seals(data))
    if rel.endswith(".metrics.json.crc"):
        sealed = path[: -len(".crc")]
        try:
            with open(sealed, "rb") as f:
                body = f.read()
        except OSError:
            return "sidecar-without-file"
        expect = b"%08x %d\n" % (zlib.crc32(body), len(body))
        return "sidecar-ok" if data == expect else "sidecar-mismatch"
    return _tag(data)


def run_digest(run_dir, stdout_path=None):
    """Digest of one run. Returns (digest dict, artifact bytes on disk)."""
    digest = {}
    total = 0
    for sub in RUN_DIRS:
        base = os.path.join(run_dir, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, _, files in os.walk(base):
            for name in files:
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, run_dir).replace(os.sep, "/")
                digest[rel] = file_tag(path, rel)
                total += os.path.getsize(path)
    if stdout_path is not None:
        try:
            with open(stdout_path, "rb") as f:
                digest["stdout"] = _tag(f.read())
        except OSError as e:
            raise DigestError("stdout: %s" % e) from None
    return digest, total


def mismatches(expected, actual, limit=5):
    """Human-readable differences between two digests (empty if equal)."""
    out = []
    for key in sorted(set(expected) | set(actual)):
        e, a = expected.get(key), actual.get(key)
        if e != a:
            out.append("%s: expected %s, got %s" % (key, e or "nothing", a or "nothing"))
    if len(out) > limit:
        out = out[:limit] + ["... %d more" % (len(out) - limit)]
    return out


def signature(run_dir):
    """Cheap fingerprint (name, size, mtime) of a run, to see it untouched."""
    sig = []
    for sub in RUN_DIRS:
        for dirpath, _, files in os.walk(os.path.join(run_dir, sub)):
            for name in files:
                st = os.stat(os.path.join(dirpath, name))
                sig.append((os.path.join(dirpath, name), st.st_size, st.st_mtime_ns))
    return sorted(sig)
