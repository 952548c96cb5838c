import json
import unittest

import helpers  # noqa: F401
import result

UNITS = {"wall_p50_ms": "ms", "setup_s": "s"}
GOOD = {"correct": True, "attempted": 3, "failed": 0,
        "metrics": {"wall_p50_ms": {"value": 1.5, "unit": "ms"},
                    "setup_s": {"value": 0.25, "unit": "s"}}}


def line(**changes):
    doc = json.loads(json.dumps(GOOD))
    doc.update(changes)
    return json.dumps(doc)


class ParseResult(unittest.TestCase):
    def test_well_formed_line_parses_after_other_output(self):
        doc = result.parse_result("table line\n" + line() + "\n", UNITS)
        self.assertEqual(doc["metrics"], {"wall_p50_ms": 1.5, "setup_s": 0.25})

    def test_malformed_input_raises_result_error(self):
        bad_metrics = dict(GOOD["metrics"], setup_s={"value": "fast", "unit": "s"})
        cases = [
            "", "   \n", "not json", "[1, 2]", "null", b"\xff\xfe", 42, None,
            '{"correct": true}',
            line(correct="yes"),
            line(attempted=0),
            line(attempted=1.5),
            line(failed=-1),
            line(failed=9),
            line(attempted=True),
            line(metrics=[]),
            line(metrics={"wall_p50_ms": {"value": 1, "unit": "ms"}}),
            line(metrics=dict(GOOD["metrics"], wall_p50_ms={"value": 1, "unit": "s"})),
            line(metrics=dict(GOOD["metrics"], wall_p50_ms=3)),
            line(metrics=bad_metrics),
            line(metrics=dict(GOOD["metrics"], setup_s={"value": True, "unit": "s"})),
            line(extra=1),
            line()[:-5],
            '{"correct": true, "attempted": 1, "failed": 0, "metrics": '
            '{"wall_p50_ms": {"value": NaN, "unit": "ms"}, "setup_s": {"value": 1, "unit": "s"}}}',
        ]
        for text in cases:
            with self.subTest(text=text):
                with self.assertRaises(result.ResultError):
                    result.parse_result(text, UNITS)


class ParseLayers(unittest.TestCase):
    def test_exact_names_parse(self):
        self.assertEqual(result.parse_layers('{"a_ms": 1, "b": 2.5}', ["a_ms", "b"]),
                         {"a_ms": 1.0, "b": 2.5})

    def test_malformed_input_raises_result_error(self):
        for text in ["", "{", '{"a_ms": 1}', '{"a_ms": 1, "b": 2, "c": 3}',
                     '{"a_ms": "1", "b": 2}', '{"a_ms": null, "b": 2}',
                     '{"a_ms": Infinity, "b": 2}', "[]", b"\x80"]:
            with self.subTest(text=text):
                with self.assertRaises(result.ResultError):
                    result.parse_layers(text, ["a_ms", "b"])


if __name__ == "__main__":
    unittest.main()
