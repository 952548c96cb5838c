"""A traced run prints every per-layer metric, and its replay matches
the CLI byte for byte (the run fails otherwise)."""

import subprocess
import sys
import unittest

import helpers
import result
import run


class TracedRun(unittest.TestCase):
    def test_resume_replay_reports_every_layer(self):
        r = subprocess.run([sys.executable, str(helpers.PERFBENCH / "run.py"),
                            "--workload", "resume", "--seed", "3", "--seconds", "1",
                            "--trace", "1"],
                           cwd=helpers.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        doc = result.parse_result(r.stdout, run.PER_LAYER)
        self.assertTrue(doc["correct"], r.stderr[-2000:])
        m = doc["metrics"]
        self.assertGreater(m["obs.artifact.verify_ms"], 0)
        self.assertEqual(m["exp.compute.ext-fleet_ms"], 0)
        self.assertLess(m["exp.unattributed_ms"], 0.05 * m["bench.replay_ms"])


if __name__ == "__main__":
    unittest.main()
