"""The seed reaches hprc-exp: two seeds give different artifacts, and
both pass the benchmark's output gate. Builds the program if needed."""

import json
import subprocess
import sys
import unittest

import helpers
import digest
import result
import run


def tearDownModule():
    helpers.cleanup()


class SeedReachesProgram(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()

    def test_two_seeds_give_different_artifacts(self):
        digests = []
        for seed in (1, 2):
            ref = run.prepare(self.exe, "suite", seed, helpers.scratch("seed-%d" % seed))
            digests.append(ref.run_digest)
        differing = {line.split(":")[0] for line in
                     digest.mismatches(digests[0], digests[1], limit=1000)}
        # The manifest records the seed; ext-faults draws its fault plans from it.
        self.assertLessEqual({"out/run.manifest.jsonl", "out/ext-faults.json"}, differing)

    def test_seed_zero_reference_matches_the_golden_digests(self):
        ref = run.prepare(self.exe, "suite", 0, helpers.scratch("seed-0"))
        golden = json.loads(run.GOLDEN.read_text())["quiet"]
        self.assertEqual(digest.mismatches(golden, ref.run_digest), [])

    def test_both_seeds_pass_the_gate(self):
        units = dict(run.END_TO_END)
        for seed in (1, 2):
            with self.subTest(seed=seed):
                r = subprocess.run([sys.executable, str(helpers.PERFBENCH / "run.py"),
                                    "--workload", "suite", "--seed", str(seed),
                                    "--seconds", "1", "--trace", "0"],
                                   cwd=helpers.ROOT, stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE)
                self.assertEqual(r.returncode, 0, r.stderr[-2000:])
                doc = result.parse_result(r.stdout, units)
                self.assertTrue(doc["correct"])
                self.assertEqual(doc["failed"], 0)
                self.assertGreaterEqual(doc["attempted"], run.MIN_SAMPLES)


if __name__ == "__main__":
    unittest.main()
