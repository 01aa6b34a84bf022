#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --serve-rate 3000 --workload train \
        --seed 1 --seconds 20 --trace 0

Builds the library and the benchmark from source (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset, then runs one workload. The benchmark's stdout passes through
unchanged; its last line is the one-line JSON result. Details files and
Chrome traces go to .bench_out/, state directories to a fresh directory
under .bench_tmp/ that is removed afterwards.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_id(root):
    """The checkout's commit, or "unknown" outside a git repository."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(root, build_dir, tmp_parent):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=str(tmp_parent))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   stdout=sys.stderr, check=True, env=env)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--serve-rate", required=True, type=float)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {root / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")

    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = root / base
    build_dir = base / "perfbench"
    tmp_parent = root / ".bench_tmp"
    tmp_parent.mkdir(parents=True, exist_ok=True)
    try:
        build(root, build_dir, tmp_parent)
    except subprocess.CalledProcessError as e:
        fail(f"build failed ({e})")

    out_dir = root / ".bench_out"
    tmp_dir = tempfile.mkdtemp(prefix="run-", dir=tmp_parent)
    cmd = [str(build_dir / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", args.trace,
           "--serve-rate", repr(args.serve_rate),
           "--out-dir", str(out_dir),
           "--tmp-dir", tmp_dir,
           "--commit", source_id(root)]
    sys.stdout.flush()
    # A terminated wrapper must not leave the benchmark running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = 1
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
