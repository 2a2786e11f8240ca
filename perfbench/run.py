#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload postmark|forensics|churn \
        --seed N --seconds S --trace 0|1

Builds the Go program in this directory from source (the module
replaces `s4` with the repository root), then runs it with the same
arguments. Everything the build and run write stays under the build
directory: $CARGO_TARGET_DIR if set, else .bench_build at the root.
The program's last line of standard output is the result object.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        fail("no go.mod at the repository root: the program's source is missing")
    go = shutil.which("go")
    if go is None:
        fail("the go toolchain is not on PATH")

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(root, build)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    os.makedirs(build, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    tmp = f"{binary}.{os.getpid()}.tmp"
    try:
        b = subprocess.run(
            [go, "build", "-o", tmp, "."],
            cwd=here, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if b.returncode != 0:
        sys.stderr.write(b.stdout.decode(errors="replace"))
        fail("build failed")
    os.replace(tmp, binary)

    args = sys.argv[1:] + ["--trace-dir", os.path.join(build, "traces")]
    try:
        r = subprocess.run([binary] + args, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
