#!/usr/bin/env python3
"""Build the benchmark and nwserve from this checkout, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload be-road --seed 1 --seconds 30 --trace 0

Everything the build writes (binaries, Go's build cache, temporary files)
goes under $CARGO_TARGET_DIR, or .bench_build when it is unset. The last
line of standard output is the run's JSON result; see perfbench/main.go.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bindir = os.path.join(out, "bin")
    env = dict(os.environ)
    for var, sub in [
        ("GOCACHE", "gocache"),
        ("GOMODCACHE", "gomodcache"),
        ("GOPATH", "gopath"),
        ("GOTMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
    ]:
        env[var] = os.path.join(out, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOFLAGS="", GOWORK="off", GOTOOLCHAIN="local", GOPROXY="off", CGO_ENABLED="0")
    build = subprocess.run(
        ["go", "build", "-o", bindir + os.sep, ".", "nwforest/cmd/nwserve"],
        cwd=here,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=850,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stderr.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed\n")
        return 1
    exe = os.path.join(bindir, "perfbench")
    os.execv(exe, [exe, *sys.argv[1:], "--nwserve", os.path.join(bindir, "nwserve")])
    return 1


if __name__ == "__main__":
    sys.exit(main())
