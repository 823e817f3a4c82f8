#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --self-test

Builds the runner (perfbench/CMakeLists.txt, Release) into
``$CARGO_TARGET_DIR`` (default ``.bench_build``), writes the seeded inputs
under ``.bench_work/``, runs the workload in its own process and prints, as
the last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  The line before
it carries the run manifest (git describe, build type, invariants flag,
hardware concurrency, seed, input hashes).  A traced run also writes a
Chrome trace-event file under ``.bench_work/``.

Exit codes: 0 when every output checked correct (cases over their budget
count as failed but are not wrong), 1 when an output is wrong or a metric
name does not match BENCHMARK.json, 2 when the benchmark cannot run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_work"
RUN_LIMIT_S = 175.0
# Every workload the runner implements, with its quick-mode arguments for
# --self-test.  cache_reread is not declared in BENCHMARK.json (see
# README.md); its quick mode keeps the four 32-task shapes, which include
# the page-cache defect repro that never finishes.
QUICK = {"paper_suite": ["--only", "fig5,table1"],
         "cache_reread": ["--max-cases", "4"],
         "cache_writeback": ["--max-cases", "1"]}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure and build the runner; returns its path."""
    out = build_dir()
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise RuntimeError("the simulator sources (src/, CMakeLists.txt) are not in this checkout")
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench_runner", "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    return out / "perfbench_runner"


def git_describe():
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def write_inputs(workload, seed):
    """Generated scenario documents for a seeded workload; returns the dir."""
    out = WORK_DIR / f"{workload}-seed{seed}"
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    for i, (name, doc) in enumerate(workloads.GENERATORS[workload](seed)):
        (out / f"{i:03d}_{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return out


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(runner, workload, seed, seconds, trace, extra=(), deadline=None):
    """Run the runner once; returns (exit code, parsed result or None)."""
    args = [str(runner), "--workload", workload, "--root", str(ROOT), "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--git-describe", git_describe()]
    if workload in workloads.GENERATORS:
        args += ["--inputs", str(write_inputs(workload, seed))]
    if trace:
        args += ["--trace-out", str(WORK_DIR / f"trace-{workload}-seed{seed}.json")]
    args += list(extra)
    timeout = max(1.0, (deadline or time.monotonic() + RUN_LIMIT_S) - time.monotonic())
    try:
        r = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{workload}: runner exceeded {timeout:.0f} s and was killed")
        return 2, None
    lines = [ln for ln in r.stdout.splitlines() if ln.strip()]
    try:
        return r.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return 2, None


def names_match(result, trace):
    want = declared_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        log(f"metric names/units differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
            f"unit mismatches {sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
        return False
    return True


def self_test(runner):
    """Quick mode: every workload prints the names BENCHMARK.json declares in
    both modes, the never-finishing cache_reread shapes come back failed
    instead of hanging the run, and a corrupted expected report trips the
    correctness gate."""
    ok = True
    for workload, extra in QUICK.items():
        for trace in (False, True):
            code, result = run_workload(runner, workload, 1, 1, trace, extra)
            good = code == 0 and result is not None and result["correct"] and names_match(result, trace)
            if good and workload == "cache_reread" and result["failed"] == 0:
                log("self-test cache_reread: the defect repro was not counted as failed")
                good = False
            log(f"self-test {workload} trace={int(trace)}: {'ok' if good else 'FAILED'}")
            ok &= good

    corrupt_dir = WORK_DIR / "selftest-expected"
    corrupt_dir.mkdir(parents=True, exist_ok=True)
    text = (ROOT / "experiments" / "table1.expected.json").read_text()
    digit = next(i for i, ch in enumerate(text) if ch.isdigit())
    flipped = "1" if text[digit] != "1" else "2"
    (corrupt_dir / "table1.expected.json").write_text(text[:digit] + flipped + text[digit + 1:])
    code, result = run_workload(runner, "paper_suite", 1, 1, False,
                                ["--only", "table1", "--expected-dir", str(corrupt_dir)])
    tripped = code != 0 and result is not None and not result["correct"]
    log(f"self-test corrupted expected report: {'gate tripped' if tripped else 'NOT DETECTED'}")
    ok &= tripped
    print(json.dumps({"self_test": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    try:
        runner = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"cannot build the runner: {e}")
        return 2
    # The run's own limit starts after the build, which may be a cold one.
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.self_test:
        return self_test(runner)
    if args.workload not in QUICK:
        log(f"unknown workload {args.workload!r}; expected one of {list(QUICK)}")
        return 2

    code, result = run_workload(runner, args.workload, args.seed, args.seconds,
                                bool(args.trace), deadline=deadline)
    if result is None:
        log(f"{args.workload}: no result (runner exit code {code})")
        return 2
    manifest = result.pop("manifest", {})
    manifest["benchmark_sha256"] = hashlib.sha256(
        (ROOT / "BENCHMARK.json").read_bytes()).hexdigest()[:16]
    print(json.dumps({"manifest": manifest}))
    if not names_match(result, bool(args.trace)):
        code = code or 1
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return code


if __name__ == "__main__":
    sys.exit(main())
