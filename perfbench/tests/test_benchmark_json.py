"""BENCHMARK.json agrees with what run.py measures, within the file's limits."""

import json
import re
import unittest

import helpers
import run

CONFIG = json.loads((helpers.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchmarkJson(unittest.TestCase):
    def test_keys_and_command(self):
        self.assertEqual(set(CONFIG), {"command", "paths", "run_seconds", "workloads",
                                       "end_to_end", "per_layer"})
        self.assertEqual(CONFIG["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(CONFIG["paths"], ["perfbench"])
        self.assertTrue(1 <= CONFIG["run_seconds"] <= 60)

    def test_workloads_match_run_py(self):
        self.assertEqual([w["name"] for w in CONFIG["workloads"]], list(run.WORKLOADS))
        for w in CONFIG["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_end_to_end_metrics(self):
        self.assertEqual(list(run.END_TO_END), ["wall_p50_ms", "wall_tail_ms", "cpu_p50_ms",
                                                "peak_rss_mb", "artifact_mb", "setup_s"])
        for m in CONFIG["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in CONFIG["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in CONFIG["end_to_end"]))

    def test_per_layer_metrics(self):
        for m in CONFIG["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for name in run.LOOP_LAYERS:
            self.assertIn(name, run.PER_LAYER)
        self.assertLessEqual(len(CONFIG["per_layer"]), 128)

    def test_names_and_units_are_well_formed(self):
        names = [m["name"] for k in ("workloads", "end_to_end", "per_layer") for m in CONFIG[k]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in CONFIG["end_to_end"] + CONFIG["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))


if __name__ == "__main__":
    unittest.main()
