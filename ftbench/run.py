#!/usr/bin/env python3
"""Build the ftdiag benchmark from this checkout and run one workload.

    python3 ftbench/run.py --workload serve_mix --seed 1 --seconds 20 --trace 0

Run from the root of the checkout.  The library and the ftbench program
build into .bench_build/ftbench (cmake, Release); build output goes to
stderr, so the last line of stdout is the run's JSON result.  See
ftbench/README.md.
"""
import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ftbench")
WORKLOADS = ("serve_mix", "serve_wide", "atpg")


def source_id():
    """The git SHA when the checkout is a repository, else a digest of the
    library and benchmark sources."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # A checkout inside some other repository is not that repository.
        if (out.returncode == 0 and len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return "git:" + lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "ftbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths += [os.path.join(base, f) for f in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    """Configure once, then bring the ftbench program up to date.  Concurrent runs
    serialise on a lock file."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD, "--target", "ftbench",
                        "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "ftbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("ftbench: the ftdiag sources (CMakeLists.txt, src/) are "
                 "not next to the benchmark")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("ftbench: build failed: %s" % error)

    trace_path = os.path.join(ROOT, ".bench_build", "ftbench-traces",
                              "%s-seed%d.jsonl" % (args.workload, args.seed))
    command = [binary,
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", os.path.join(ROOT, ".bench_build", "ftbench-run"),
               "--trace-path", trace_path,
               "--source-id", source_id()]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
