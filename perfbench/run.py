#!/usr/bin/env python3
"""Run one rpclens benchmark workload and print its result line.

    python3 perfbench/run.py --workload repro-default --seed 7 --seconds 20 --trace 0

Builds the harness in perfbench/harness from the checkout's sources
(into $CARGO_TARGET_DIR, default .bench_build), runs one workload for
--seconds, checks its outputs, and prints as the last line of stdout one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end set; with
--trace 1 its per_layer set. The line before it stamps the machine.
Every result is also saved, with its stamp and output fingerprint,
under --out (default perfbench/out/results) for perfbench/compare.py.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
HARNESS = BENCH_DIR / "harness"
# The first build of a fresh checkout compiles every crate (about 20 s
# on two vCPUs); the cap keeps build plus run under 900 s.
BUILD_TIMEOUT_S = 700
# A run, build excluded, must end within this many seconds.
RUN_BUDGET_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args(workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, help="input seed (default: the preset's)")
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--out", default=str(BENCH_DIR / "out" / "results"),
                   help="directory the full result record is saved in")
    args = p.parse_args()
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be within 1..60")
    return args


def run(cmd, timeout, what, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole
    group (cargo's compiler children included) and waits for it."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail(f"{what} did not finish within {timeout} s")
    return proc.returncode, stdout


def build(env):
    """Builds the harness offline; returns the executable's path."""
    if not (ROOT / "crates").is_dir() or not (ROOT / "Cargo.toml").is_file():
        fail(f"no rpclens sources next to {BENCH_DIR.name}/ (crates/ is missing)")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HARNESS / "Cargo.toml")]
    returncode, _ = run(cmd, BUILD_TIMEOUT_S, "the harness build", env=env, stdout=sys.stderr)
    if returncode != 0:
        fail(f"harness build failed with exit code {returncode}")
    return Path(env["CARGO_TARGET_DIR"]) / "release" / "rpclens-perfbench"


def source_id():
    """The commit, or without git a digest of the sources that were built."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor"]:
        paths = [ROOT / top] if (ROOT / top).is_file() else sorted((ROOT / top).rglob("*"))
        for path in paths:
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "source-sha256:" + h.hexdigest()[:16]


def machine(report):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True,
                               timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "rustc": rustc,
        "commit": source_id(),
        "shards": report["shards"],
        "threads": report["threads"],
    }


def pin_failures(workload, seed, fingerprint):
    """Compares the fingerprint with the pinned one for this seed, if any.
    Returns (fields compared, failure messages)."""
    pins = json.loads((BENCH_DIR / "expected.json").read_text())["pins"]
    pinned = pins.get(workload, {}).get(str(seed))
    if pinned is None:
        return 0, []
    failures = [f"{key}: {fingerprint.get(key)!r} != pinned {value!r}"
                for key, value in pinned.items() if fingerprint.get(key) != value]
    return len(pinned), failures


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args([w["name"] for w in spec["workloads"]])
    kind = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[kind]}

    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = str(ROOT / env.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = build(env)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    cmd = [str(exe), "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace:
        cmd += ["--spans", str(out_dir / f"spans-{tag}.json")]
    returncode, stdout = run(cmd, RUN_BUDGET_S, args.workload, stdout=subprocess.PIPE, text=True)
    if returncode != 0:
        fail(f"harness exited with code {returncode}")
    report = json.loads(stdout)

    metrics = report["metrics"]
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        fail(f"harness metrics do not match BENCHMARK.json {kind}: "
             f"missing {sorted(expected.keys() - got.keys())}, "
             f"extra {sorted(got.keys() - expected.keys())}, "
             f"unit mismatch {sorted(k for k in got.keys() & expected.keys() if got[k] != expected[k])}")

    pinned, pin_fail = pin_failures(args.workload, report["seed"], report["fingerprint"])
    failures = report["failures"] + pin_fail
    stamp = machine(report)
    result = {
        "correct": not failures,
        "attempted": report["attempted"] + pinned,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": report["seed"], "trace": args.trace,
              "seconds": args.seconds, "machine": stamp,
              "iterations": {"untraced": report["untraced_iterations"],
                             "traced": report["traced_iterations"]},
              "fingerprint": report["fingerprint"], "pinned_fields": pinned,
              "samples": report["samples"],
              "failures": failures, "result": result}
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    for message in failures[:20]:
        print(f"FAILED: {message}")
    print("machine: " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
