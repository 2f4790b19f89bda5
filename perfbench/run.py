#!/usr/bin/env python3
"""Build and run the powerburst benchmark.

    python3 perfbench/run.py --workload <paper-grid|tcp-faulted|city-live> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `perfbench` package with
cargo (release profile, offline) into $CARGO_TARGET_DIR, default
`.bench_build`, then runs the benchmark with the same arguments plus the
current commit id. Cargo's output goes to stderr; the benchmark's result is
the last line of stdout. A failed build exits 1 without printing a result.
"""

import os
import subprocess
import sys


def commit_id(root):
    """The checkout's commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=root, env=env, capture_output=True, text=True, check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run([binary] + sys.argv[1:] + ["--commit", commit_id(root)])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
