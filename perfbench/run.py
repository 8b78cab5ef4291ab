#!/usr/bin/env python3
"""Build and run the Pi-tree benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload write-hot --seed 1 --seconds 20 --trace 0

Builds perfbench/perfbench.exe from source with dune (build output goes to
stderr), then runs it with the given arguments. Databases and trace files
go under perfbench/out/. The last line of standard output is the JSON
result; the exit code is the benchmark's (non-zero when the build fails or
any check fails).
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def revision():
    """The source revision, when the tree is a git checkout."""
    if not os.path.isdir(".git") or shutil.which("git") is None:
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"],
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    out = os.path.join("perfbench", "out")
    args = [exe] + sys.argv[1:] + ["--out", out, "--commit", revision()]
    try:
        return subprocess.run(args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
