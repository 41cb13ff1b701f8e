#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <study-build|wire-mixed|cut-local> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) that depends
on the repository's crates by path. It is built in release mode into
CARGO_TARGET_DIR (default: .bench_build). Build output goes to standard
error; standard output carries only the benchmark's two JSON lines, the
last of which is the result. The exit code is the benchmark's, or 1 when
the build fails.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# Sources whose content identifies the program under test.
SOURCE_DIRS = ["crates", "vendor", "perfbench/src"]
SOURCE_FILES = ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml", "perfbench/Cargo.lock"]


def revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        top, head = out.stdout.split()
        # A checkout nested in some other repository is not that commit.
        if pathlib.Path(top).resolve() == ROOT:
            return "git:" + head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    paths = [ROOT / f for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        paths.extend(p for p in (ROOT / d).rglob("*") if p.is_file())
    for path in sorted(p for p in paths if p.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or str(ROOT / ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(HERE / "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = pathlib.Path(target)
    if not binary.is_absolute():
        binary = ROOT / binary
    binary = binary / "release" / "perfbench"
    args = sys.argv[1:] + ["--revision", revision()]
    return subprocess.run([str(binary)] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
