#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload course-explain --seed 1 --seconds 15 --trace 0

The Go build cache, the binaries and the span files all go under
.bench_build/ in the checkout, so nothing is written outside it. The last
line of standard output is the benchmark's JSON result; the exit code is the
benchmark's, or non-zero when the program cannot be built.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        "HOME": os.path.join(BUILD, "home"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "home", ".config"),
        "GOTELEMETRY": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    """Build the benchmark and ratestd; return their paths or exit."""
    bindir = os.path.join(BUILD, "bin")
    os.makedirs(bindir, exist_ok=True)
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    bench = os.path.join(bindir, "e2ebench")
    ratestd = os.path.join(bindir, "ratestd")
    env = go_env()
    for out, pkg in ((bench, "."), (ratestd, "repro/cmd/ratestd")):
        proc = subprocess.run(["go", "build", "-o", out, pkg], cwd=HERE, env=env,
                              stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        if proc.returncode != 0:
            sys.exit("e2ebench: building %s failed" % pkg)
    return bench, ratestd


def main():
    bench, ratestd = build()
    args = [bench, "--ratestd", ratestd, "--out", os.path.join(BUILD, "traces")] + sys.argv[1:]
    proc = subprocess.Popen(args, cwd=ROOT)
    try:
        sys.exit(proc.wait())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    main()
