#!/usr/bin/env python3
"""Builds perfbench from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the checkout. The first call configures and builds
the program's src/ tree and the benchmark binary under .bench_build/ (a few
minutes); later calls only rebuild what changed. The last line of standard
output is the run's JSON result. A traced run (--trace 1) also writes a
Chrome trace and a span summary under .bench_build/trace/.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("network_forward", "serve_hot", "serve_churn", "offline_ship")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no program sources at {ROOT / 'src'}; run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_ROOT / "build.log"
    with open(log_path, "w") as log:
        if not (BUILD / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail(f"cmake configure failed; see {log_path}")
        jobs = str(os.cpu_count() or 1)
        if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                          stdout=log, stderr=subprocess.STDOUT,
                          cwd=ROOT).returncode != 0:
            fail(f"build failed; see {log_path}")
    return BUILD / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    # A terminated run.py raises SystemExit inside subprocess.run, which then
    # kills and reaps the benchmark before the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    binary = build()
    run_dir = BUILD_ROOT / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--run-dir", str(run_dir),
               "--trace-dir", str(BUILD_ROOT / "trace"),
               "--revision", revision()]
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
