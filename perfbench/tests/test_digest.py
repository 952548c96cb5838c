import json
import unittest
import zlib

import helpers
import digest
import run


def write(path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def sidecar(data):
    return b"%08x %d\n" % (zlib.crc32(data), len(data))


def metrics(spans):
    return json.dumps({"counters": {"c": 1}, "gauges": {}, "histograms": {},
                       "spans": spans}, indent=2).encode()


def manifest(metrics_crc):
    return b"\n".join([
        b'{"seq":0,"ev":"intent","run":"run"}',
        b'{"seq":1,"ev":"artifact-sealed","id":"x","dir":"trace","name":"x.metrics.json",'
        b'"crc":"' + metrics_crc + b'","bytes":9}',
        b'{"seq":2,"ev":"artifact-sealed","id":"x","dir":"out","name":"x.json","crc":"01","bytes":2}',
        b"",
    ])


def make_run(base, span_us, out=b"{}"):
    m = metrics([{"name": "s", "depth": 0, "start_us": 0, "dur_us": span_us}])
    write(base / "out" / "x.json", out)
    write(base / "out" / "run.manifest.jsonl", manifest(b"%08x" % zlib.crc32(m)))
    write(base / "trace" / "x.metrics.json", m)
    write(base / "trace" / "x.metrics.json.crc", sidecar(m))
    write(base / "stdout.txt", b"report\n")
    return base


def tearDownModule():
    helpers.cleanup()


class RunDigest(unittest.TestCase):
    def test_wall_clock_parts_are_ignored(self):
        a, size = digest.run_digest(make_run(helpers.scratch("a"), 5))
        b, _ = digest.run_digest(make_run(helpers.scratch("b"), 123456))
        self.assertEqual(digest.mismatches(a, b), [])
        self.assertEqual(a["trace/x.metrics.json.crc"], "sidecar-ok")
        self.assertGreater(size, 0)

    def test_deterministic_bytes_are_compared(self):
        a, _ = digest.run_digest(make_run(helpers.scratch("a"), 5))
        b, _ = digest.run_digest(make_run(helpers.scratch("b"), 5, out=b"{ }"))
        self.assertEqual(len(digest.mismatches(a, b)), 1)

    def test_counters_in_metrics_are_compared(self):
        base = make_run(helpers.scratch("a"), 5)
        a, _ = digest.run_digest(base)
        write(base / "trace" / "x.metrics.json",
              metrics([]).replace(b'"c": 1', b'"c": 2'))
        b, _ = digest.run_digest(base)
        self.assertIn("trace/x.metrics.json", "".join(digest.mismatches(a, b)))
        self.assertEqual(b["trace/x.metrics.json.crc"], "sidecar-mismatch")

    def test_stdout_and_missing_files_count(self):
        base = make_run(helpers.scratch("a"), 5)
        a, _ = digest.run_digest(base, base / "stdout.txt")
        (base / "out" / "x.json").unlink()
        write(base / "stdout.txt", b"other\n")
        b, _ = digest.run_digest(base, base / "stdout.txt")
        self.assertEqual(len(digest.mismatches(a, b)), 2)

    def test_malformed_metrics_is_a_digest_error(self):
        base = make_run(helpers.scratch("a"), 5)
        write(base / "trace" / "x.metrics.json", b"{not json")
        with self.assertRaises(digest.DigestError):
            digest.run_digest(base)


class Tail(unittest.TestCase):
    def test_ten_samples_lie_beyond_the_tail(self):
        values = list(range(40))
        v, pct = run.tail(values)
        self.assertEqual(sum(1 for x in values if x > v), run.TAIL_BEYOND)
        self.assertEqual(pct, 75.0)

    def test_too_few_samples_fall_back_to_the_maximum(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0))


if __name__ == "__main__":
    unittest.main()
