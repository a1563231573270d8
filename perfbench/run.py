#!/usr/bin/env python3
"""Build and run the perfbench benchmark, or compare two sets of results.

Run one workload (from the root of the repository):

    python3 perfbench/run.py --workload offload_rpc --seed 1 --seconds 10 --trace 0

builds the benchmark (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), runs it, and prints two JSON lines: a detail record (every
metric with unit and sample count, every check, and the host fingerprint)
and, last, the result line `{"correct", "attempted", "failed", "metrics"}`.
`--out FILE` also appends the detail record to FILE (JSON lines).

Compare two result files written with `--out`:

    python3 perfbench/run.py compare base.jsonl head.jsonl

prints each end-to-end metric's median per workload on both sides and fails
when one is worse than its bound in BENCHMARK.json. When the two files were
recorded on different hosts (CPU model, CPU count, rustc version or thread
count differ) it refuses to judge absolute numbers, says so, and exits 3.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def host_fingerprint():
    """CPU model, CPU count and rustc version of this host."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, timeout=60, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rustc = "unknown"
    return {"cpu_model": model, "nproc": len(os.sched_getaffinity(0)), "rustc": rustc}


def build():
    """Builds the benchmark binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        # Build output goes to stderr: stdout's last line is the result.
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail(f"build failed with exit code {r.returncode}")
    return os.path.join(target, "release", "perfbench")


def run(argv):
    out_file = None
    if "--out" in argv:
        i = argv.index("--out")
        if i + 1 >= len(argv):
            fail("--out needs a file", 2)
        out_file = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    binary = build()
    try:
        r = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    except OSError as e:
        fail(f"cannot run {binary}: {e}")
    lines = [ln for ln in r.stdout.splitlines() if ln.strip()]
    if r.returncode != 0 or len(lines) < 2:
        fail(f"benchmark exited with code {r.returncode}", r.returncode or 1)
    detail = json.loads(lines[-2])["perfbench"]
    result = json.loads(lines[-1])
    detail["host"] = dict(host_fingerprint(), threads=detail["threads"])
    detail["correct"] = result["correct"]
    record = json.dumps({"perfbench": detail})
    if out_file:
        with open(out_file, "a", encoding="utf-8") as f:
            f.write(record + "\n")
    print(record)
    print(json.dumps(result), flush=True)


def load(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(ln)["perfbench"] for ln in f if ln.strip()]


def compare(base_path, head_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    base, head = load(base_path), load(head_path)
    worse = refused = 0
    for w in (w["name"] for w in spec["workloads"]):
        hosts = {json.dumps(r["host"], sort_keys=True) for r in base + head if r["workload"] == w}
        if len(hosts) > 1:
            refused += 1
            print(f"{w}: REFUSED. The two sides come from different host fingerprints,")
            print("so their absolute numbers cannot be compared. Re-record both on one host:")
            for h in sorted(hosts):
                print(f"  {h}")
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in base if r["workload"] == w and not r["trace"]]
            b = [r["metrics"][name]["value"] for r in head if r["workload"] == w and not r["trace"]]
            if not a or not b:
                print(f"{w:12} {name:16} missing on one side")
                worse += 1
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            loss = change if m["better"] == "lower" else -change
            verdict = "WORSE" if loss > bound else "ok"
            worse += verdict == "WORSE"
            print(f"{w:12} {name:16} {ma:14.6g} -> {mb:14.6g} {change:+8.2%} bound {bound:.0%} {verdict}")
    return 3 if refused else 1 if worse else 0


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare BASE.jsonl HEAD.jsonl", 2)
        sys.exit(compare(argv[1], argv[2]))
    run(argv)


if __name__ == "__main__":
    main()
