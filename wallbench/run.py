#!/usr/bin/env python3
"""Builds wallbench and runs one workload of it.

    python3 wallbench/run.py --workload stream-miso --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`). The oracle's reference answers are computed in a
first process and handed to the measuring process on stdin, so that the
oracle's memory stays out of `peak_rss_mb`. The script prints every metric
by name with its unit, then, as its last line, one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["stream-miso", "etl-dw", "growth-ivm", "serve-sessions"]
DEFAULT_SEED = 0x5EED_2014
# Each child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150


def git_commit():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(".git/HEAD") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as f:
                return f.read().strip()
        with open(".git/packed-refs") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def fail(msg, code=1):
    print(f"wallbench: {msg}", file=sys.stderr)
    sys.exit(code)


def child(cmd, stdin_text=""):
    try:
        p = subprocess.run(
            cmd, input=stdin_text, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} timed out after {CHILD_TIMEOUT_S} s")
    sys.stderr.write(p.stderr)
    if p.returncode != 0:
        fail(f"{' '.join(cmd)} exited with {p.returncode}", p.returncode)
    return p.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed", build.returncode)
    binary = os.path.join(target, "release", "wallbench")

    common = ["--workload", a.workload, "--seed", str(a.seed)]
    reference = child([binary, "reference", *common])
    out = child(
        [binary, "run", *common, "--seconds", str(a.seconds), "--trace", str(a.trace)],
        reference,
    )
    r = json.loads(out.strip().splitlines()[-1])

    print(f"workload {r['workload']}  seed {r['seed']}  commit {git_commit()}")
    print(f"nproc {r['nproc']}  pool threads {r['pool_threads']}  passes {r['passes']}  "
          f"({'traced and untraced, alternating' if a.trace else 'untraced'})")
    print("pass wall (s): " + " ".join(f"{w:.3f}" for w in r["pass_walls_s"]))
    print(f"cpu time stolen by the hypervisor during timed passes: {r['steal_frac']:.2%}")
    print(f"attempted {r['attempted']}  failed {r['failed']}  "
          f"failed_frac {r['failed'] / max(r['attempted'], 1):.6f}  correct {r['correct']}")
    for p in r["problems"]:
        print(f"problem: {p}")
    for name, m in r["metrics"].items():
        print(f"{name:28s} {m['value']:>18.6f} {m['unit']}")
    print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
