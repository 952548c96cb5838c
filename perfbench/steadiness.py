#!/usr/bin/env python3
"""Steadiness check: repeat the benchmark over seeds and report spreads.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads suite,traced]
        [--seconds N] [--out FILE]

Runs `perfbench/run.py --trace 0` once per (seed, workload), with the
workloads interleaved inside each seed so slow drift of the machine
spreads over all of them alike. For each end-to-end metric of each
workload it reports the median of the per-run values and their
spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median. A
spread is flagged when it exceeds a third of the metric's bound in
BENCHMARK.json (`setup_s` is reported but has no spread limit).
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import result  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def filesystem():
    r = subprocess.run(["stat", "-f", "-c", "%T", str(ROOT)], stdout=subprocess.PIPE, text=True)
    return r.stdout.strip() or "unknown"


def main(argv):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    p.add_argument("--seconds", type=int, default=config["run_seconds"])
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    units = {m["name"]: m["unit"] for m in config["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    runs = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            cmd = list(config["command"]) + ["--workload", w, "--seed", str(seed),
                                             "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            took = time.perf_counter() - t0
            try:
                doc = result.parse_result(r.stdout, units)
            except result.ResultError as e:
                sys.stderr.write(r.stderr.decode(errors="replace")[-2000:])
                print("seed %d %s: exit %d, %s" % (seed, w, r.returncode, e))
                return 1
            runs[w].append(dict(doc, seed=seed, took_s=took))
            print("seed %d %-9s %5.1fs correct=%s %s" % (
                seed, w, took, doc["correct"],
                " ".join("%s=%.4g" % (k, v) for k, v in doc["metrics"].items())), flush=True)

    report = {"nproc": os.cpu_count(), "filesystem": filesystem(), "seconds": args.seconds,
              "seeds": args.seeds, "workloads": {}}
    worst = 0.0
    for w in workloads:
        summary = {}
        for name in units:
            values = [r["metrics"][name] for r in runs[w]]
            s = spread(values) if len(values) > 1 else 0.0
            limited = name != "setup_s"
            if limited:
                worst = max(worst, s / bounds[name])
            summary[name] = {"median": statistics.median(values), "spread": s,
                             "bound": bounds[name],
                             "within_third": (s <= bounds[name] / 3) if limited else None}
            print("%-9s %-14s median %12.4f spread %.4f (bound %.2f)%s" % (
                w, name, statistics.median(values), s, bounds[name],
                "" if not limited or s <= bounds[name] / 3 else "  <-- above a third"))
        report["workloads"][w] = {
            "metrics": summary,
            "all_correct": all(r["correct"] for r in runs[w]),
            "mean_run_s": statistics.mean(r["took_s"] for r in runs[w]),
            "runs": runs[w],
        }
    print("worst spread / bound: %.3f" % worst)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
