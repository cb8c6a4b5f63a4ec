#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 _perfbench/run.py --workload scale256 --seed 1 --seconds 30 --trace 0

The script builds the perfbench Go package (its own module, which uses the
repository's packages through a replace directive) into .bench_build/ and
then replaces itself with the built program, passing every argument on.
The Go build cache and temporary files live under .bench_build/ too, so a
run reads and writes only inside the checkout. When the build fails it
exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    out = os.path.join(build, "perfbench")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)

    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    build_cmd = ["go", "build", "-o", binary, "."]
    # The build's own output goes to stderr: stdout carries only results.
    done = subprocess.run(build_cmd, cwd=here, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    sys.stdout.flush()
    args = [binary, "-spec", os.path.join(root, "BENCHMARK.json"), "-trace-dir", out]
    os.execve(binary, args + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
