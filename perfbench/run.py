#!/usr/bin/env python3
"""End-to-end benchmark of the `hprc-exp` CLI, plus a traced per-layer replay.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark builds the release
`hprc-exp` binary and the replay binary (`perfbench/replay`) from source
into `$CARGO_TARGET_DIR` (default `.bench_build`) and works in
`.bench_work/`, which it removes again.

Each workload is one `hprc-exp` invocation on a fresh output directory,
run as a closed loop with one client: the next invocation starts only
after the previous one has exited. Set-up makes a reference run
(`--jobs 1 --no-delta`, same seed), three times, and reports the median
as `setup_s`. Every invocation's deterministic output bytes are checked:
for seed 0 against the CRC digests in `golden/seed0.json`, for other
seeds against the reference run.

With `--trace 0` the timed loop runs for `--seconds` (and at least
MIN_SAMPLES invocations, so the tail percentile exists) and prints the
end-to-end metrics. With `--trace 1` half the time goes to a shorter
loop and half to in-process replays of the workload, whose artifacts
must match the CLI's byte for byte; it prints the per-layer metrics.
The last line of standard output is the JSON result.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import digest  # noqa: E402
import result  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work" / str(os.getpid())
GOLDEN = HERE / "golden" / "seed0.json"

SETUP_REPEATS = 3
# The tail is the highest percentile with at least ten samples beyond it.
TAIL_BEYOND = 10
MIN_SAMPLES = TAIL_BEYOND + 1
MIN_TRACE_SAMPLES = 3
MIN_REPLAYS = 3
# No loop starts a new iteration this long after it began, so a run that
# has become very slow still ends well within three minutes.
LOOP_CUTOFF_S = 100.0
INVOCATION_TIMEOUT_S = 60.0
UNATTRIBUTED_LIMIT = 0.05
MB = 1e6

WORKLOADS = {
    "suite": {"jobs": 1, "traced": False},
    "suite-par": {"jobs": 2, "traced": False},
    "traced": {"jobs": 1, "traced": True},
    "resume": {"jobs": 1, "traced": True},
}

# Metric names and units come from BENCHMARK.json; the replay must report
# every per-layer metric except the two derived from the timed loop.
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
LOOP_LAYERS = ("exp.cores_busy", "bench.trace_overhead_ms")
REPLAY_LAYERS = [n for n in PER_LAYER if n not in LOOP_LAYERS]


class BenchError(Exception):
    """The benchmark cannot run: no sources, a failed build or reference run."""


@dataclass
class Binaries:
    cli: Path
    replay: Path


def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "exp").is_dir():
        raise BenchError("no hprc-exp sources under %s; run from a source checkout" % ROOT)
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "hprc-exp"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", str(HERE / "replay" / "Cargo.toml")],
    ):
        try:
            r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError("%s: %s" % (" ".join(cmd), e)) from None
        if r.returncode != 0:
            sys.stderr.write(r.stdout.decode(errors="replace"))
            raise BenchError("build failed: %s" % " ".join(cmd))
    return Binaries(target / "release" / "hprc-exp", target / "release" / "perfbench-replay")


@dataclass
class Invocation:
    code: int
    wall_s: float
    cpu_s: float
    rss_kb: int


def invoke(exe, args, cwd, stdout_name="stdout.txt"):
    """Runs one process in `cwd`, timed from spawn to exit, with its
    user+sys time and peak RSS from wait4."""
    with open(cwd / stdout_name, "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen([str(exe)] + args, cwd=cwd, stdout=out, stderr=err)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, p.kill)
        watchdog.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss)


def stderr_tail(cwd):
    try:
        return (cwd / "stderr.txt").read_text(errors="replace")[-400:]
    except OSError:
        return ""


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cli_args(workload, seed):
    if workload == "resume":
        return ["resume", "run", "--out", "out", "--trace", "trace", "--jobs", "1"]
    args = ["--jobs", str(WORKLOADS[workload]["jobs"]), "--seed", str(seed), "--out", "out"]
    if WORKLOADS[workload]["traced"]:
        args += ["--trace", "trace"]
    return args + ["all"]


@dataclass
class Reference:
    """What set-up made: the reference digests and, for resume, the run."""

    run_digest: dict
    resume_stdout: str
    run_dir: Path
    run_bytes: int


def prepare(exe, workload, seed, dest):
    """One set-up: the reference run, its digest, and for resume a
    reference resume of it, which must leave the run as it was."""
    traced = WORKLOADS[workload]["traced"]
    args = ["--jobs", "1", "--no-delta", "--seed", str(seed), "--out", "out"]
    args += (["--trace", "trace"] if traced else []) + ["all"]
    inv = invoke(exe.cli, args, dest)
    if inv.code != 0:
        raise BenchError("reference run exited %d: %s" % (inv.code, stderr_tail(dest)))
    run_digest, run_bytes = digest.run_digest(dest, dest / "stdout.txt")
    resume_stdout = None
    if workload == "resume":
        before = digest.signature(dest)
        inv = invoke(exe.cli, cli_args("resume", seed) + ["--no-delta"], dest, "resume-stdout.txt")
        if inv.code != 0 or digest.signature(dest) != before:
            raise BenchError("reference resume exited %d or changed the run" % inv.code)
        resume_stdout = digest.file_tag(dest / "resume-stdout.txt")
    return Reference(run_digest, resume_stdout, dest, run_bytes)


def setup(exe, workload, seed, problems):
    """Set up SETUP_REPEATS times; returns (last reference, expected
    digests, median set-up seconds)."""
    times, refs = [], []
    for k in range(SETUP_REPEATS):
        if refs:
            shutil.rmtree(refs[-1].run_dir, ignore_errors=True)
        t0 = time.perf_counter()
        refs.append(prepare(exe, workload, seed, fresh(WORK / ("setup-%d" % k))))
        times.append(time.perf_counter() - t0)
    ref = refs[-1]
    if any(r.run_digest != ref.run_digest or r.resume_stdout != ref.resume_stdout for r in refs):
        problems.append("set-up: the reference runs disagree with each other")
    expected = {"run": ref.run_digest, "resume_stdout": ref.resume_stdout}
    if seed == 0:
        golden = json.loads(GOLDEN.read_text())
        expected = {
            "run": golden["traced" if WORKLOADS[workload]["traced"] else "quiet"],
            "resume_stdout": golden["resume_stdout"] if workload == "resume" else None,
        }
        for line in digest.mismatches(expected["run"], ref.run_digest):
            problems.append("reference vs golden: " + line)
        if expected["resume_stdout"] != ref.resume_stdout:
            problems.append("reference resume output differs from golden")
    return ref, expected, statistics.median(times)


@dataclass
class Loop:
    """Outcome of a timed loop of CLI invocations."""

    invocations: list = field(default_factory=list)
    artifact_bytes: list = field(default_factory=list)
    failed: int = 0


def timed_loop(exe, workload, seed, ref, expected, seconds, min_samples, problems):
    loop = Loop()
    start = time.perf_counter()
    untouched = digest.signature(ref.run_dir) if workload == "resume" else None
    while True:
        elapsed = time.perf_counter() - start
        n = len(loop.invocations)
        if (elapsed >= seconds and n >= min_samples) or elapsed >= LOOP_CUTOFF_S:
            break
        cwd = ref.run_dir if workload == "resume" else fresh(WORK / "it")
        inv = invoke(exe.cli, cli_args(workload, seed), cwd)
        loop.invocations.append(inv)
        why = []
        if inv.code != 0:
            why.append("exit %d: %s" % (inv.code, stderr_tail(cwd)))
        if workload == "resume":
            if digest.file_tag(cwd / "stdout.txt") != expected["resume_stdout"]:
                why.append("resume output differs")
            if digest.signature(cwd) != untouched:
                why.append("resume changed the run")
            loop.artifact_bytes.append(ref.run_bytes)
        else:
            got, size = digest.run_digest(cwd, cwd / "stdout.txt")
            why += digest.mismatches(expected["run"], got)
            loop.artifact_bytes.append(size)
        if why:
            loop.failed += 1
            problems.extend("invocation %d: %s" % (n, w) for w in why)
    if workload == "resume":
        # The per-iteration check is by name, size and mtime; re-check the bytes once.
        got, _ = digest.run_digest(ref.run_dir)
        want = {k: v for k, v in expected["run"].items() if k != "stdout"}
        changed = digest.mismatches(want, got)
        if changed:
            loop.failed += 1
            problems.extend("resumed run: " + line for line in changed)
    return loop


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it; the maximum when there are too few samples."""
    v = sorted(values)
    n = len(v)
    if n <= TAIL_BEYOND:
        return v[-1], 100.0
    return v[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(loop, setup_s):
    walls = [i.wall_s * 1e3 for i in loop.invocations]
    tail_ms, pct = tail(walls)
    return {
        "wall_p50_ms": statistics.median(walls),
        "wall_tail_ms": tail_ms,
        "cpu_p50_ms": statistics.median(i.cpu_s * 1e3 for i in loop.invocations),
        "peak_rss_mb": statistics.median(i.rss_kb * 1024 / MB for i in loop.invocations),
        "artifact_mb": statistics.median(loop.artifact_bytes) / MB,
        "setup_s": setup_s,
    }, pct


def replay_loop(exe, workload, seed, ref, expected, seconds, problems):
    """In-process replays; returns (per-layer dicts, attempts, failures)."""
    runs, attempts, failed = [], 0, 0
    mode = "resume" if workload == "resume" else ("traced" if WORKLOADS[workload]["traced"] else "quiet")
    untouched = digest.signature(ref.run_dir) if workload == "resume" else None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and attempts >= MIN_REPLAYS) or elapsed >= LOOP_CUTOFF_S:
            break
        attempts += 1
        cwd = fresh(WORK / "replay")
        run_dir = ref.run_dir if workload == "resume" else cwd
        args = ["--mode", mode, "--jobs", str(WORKLOADS[workload]["jobs"]), "--seed", str(seed),
                "--run", str(run_dir), "--stdout", str(cwd / "replay-stdout.txt")]
        inv = invoke(exe.replay, args, cwd, "layers.json")
        why = []
        layers = None
        if inv.code != 0:
            why.append("replay exit %d: %s" % (inv.code, stderr_tail(cwd)))
        else:
            try:
                layers = result.parse_layers((cwd / "layers.json").read_bytes(), REPLAY_LAYERS)
            except result.ResultError as e:
                why.append(str(e))
        if layers is not None:
            if workload == "resume":
                if digest.file_tag(cwd / "replay-stdout.txt") != expected["resume_stdout"]:
                    why.append("replay resume output differs from the CLI")
                if digest.signature(run_dir) != untouched:
                    why.append("replay changed the run")
            else:
                got, _ = digest.run_digest(run_dir, cwd / "replay-stdout.txt")
                why += ["replay vs CLI: " + m for m in digest.mismatches(expected["run"], got)]
            share = layers["exp.unattributed_ms"] / max(layers["bench.replay_ms"], 1e-9)
            if share >= UNATTRIBUTED_LIMIT:
                why.append("unattributed %.1f%% of the replay" % (100 * share))
            runs.append(layers)
        if why:
            failed += 1
            problems.extend("replay %d: %s" % (attempts, w) for w in why)
    return runs, attempts, failed


def run(args, exe):
    problems = []
    ref, expected, setup_s = setup(exe, args.workload, args.seed, problems)
    setup_failed = 1 if problems else 0
    if args.trace:
        loop = timed_loop(exe, args.workload, args.seed, ref, expected, args.seconds / 2,
                          MIN_TRACE_SAMPLES, problems)
        e2e, _ = end_to_end(loop, setup_s)
        runs, replays, replay_failed = replay_loop(exe, args.workload, args.seed, ref,
                                                   expected, args.seconds / 2, problems)
        values = {n: 0.0 for n in PER_LAYER}
        if runs:
            values.update((n, statistics.median(r[n] for r in runs)) for n in REPLAY_LAYERS)
            values["bench.trace_overhead_ms"] = values["bench.replay_ms"] - e2e["wall_p50_ms"]
        else:
            problems.append("no replay completed")
        values["exp.cores_busy"] = e2e["cpu_p50_ms"] / e2e["wall_p50_ms"]
        metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER.items()}
        attempted = len(loop.invocations) + replays
        failed = min(loop.failed + replay_failed + setup_failed, attempted)
        print("%s seed %d: %d invocations, %d replays (instrumented sched/sim/virt figures)"
              % (args.workload, args.seed, len(loop.invocations), len(runs)))
    else:
        loop = timed_loop(exe, args.workload, args.seed, ref, expected, args.seconds,
                          MIN_SAMPLES, problems)
        values, pct = end_to_end(loop, setup_s)
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
        attempted = len(loop.invocations)
        failed = min(loop.failed + setup_failed, attempted)
        print("%s seed %d: %d invocations, error_rate %.4f, wall_tail_ms is p%.1f (%d samples, %d beyond)"
              % (args.workload, args.seed, attempted, failed / attempted, pct,
                 attempted, min(TAIL_BEYOND, attempted - 1)))
    for name, m in metrics.items():
        print("  %-32s %14.4f %s" % (name, m["value"], m["unit"]))
    for p in problems[:20]:
        print("problem: " + p, file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def write_golden(exe):
    golden = {}
    for workload, key in (("suite", "quiet"), ("resume", "traced")):
        ref = prepare(exe, workload, 0, fresh(WORK / "golden"))
        golden[key] = ref.run_digest
        if ref.resume_stdout:
            golden["resume_stdout"] = ref.resume_stdout
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % GOLDEN)


def seed_arg(text):
    v = int(text)
    if not 0 <= v < 2**64:
        raise argparse.ArgumentTypeError("seed must be in [0, 2^64)")
    return v


def seconds_arg(text):
    v = float(text)
    if not 0 < v <= 60:
        raise argparse.ArgumentTypeError("seconds must be in (0, 60]")
    return v


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=seed_arg, default=0)
    p.add_argument("--seconds", type=seconds_arg, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true",
                   help="regenerate golden/seed0.json from seed-0 reference runs")
    args = p.parse_args(argv)
    if args.workload is None and not args.write_golden:
        p.error("--workload is required")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        exe = build()
        fresh(WORK)
        if args.write_golden:
            write_golden(exe)
            return 0
        res = run(args, exe)
    except (BenchError, digest.DigestError, OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass  # another run still works there
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
