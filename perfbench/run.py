#!/usr/bin/env python3
"""Build uhmd and the perfbench driver from this checkout, then run one benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Everything the build and the runs leave behind goes to .bench_build/ in the
checkout (Go build cache, binaries, server scratch directories, span dumps).
The driver's last line of standard output is the JSON result; build output
goes to standard error.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "cmd", "uhmd"))
            and os.path.isfile(os.path.join(root, "perfbench", "go.mod"))):
        print("perfbench: run from the root of a uhm checkout "
              "(go.mod, cmd/uhmd and perfbench/go.mod are required)", file=sys.stderr)
        return 2
    out = os.path.join(root, ".bench_build")
    bins = os.path.join(out, "bin")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        # GOENV and the toolchain's telemetry live under the user config
        # directory; keep both inside the checkout.
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    builds = [
        (root, ["go", "build", "-o", os.path.join(bins, "uhmd"), "./cmd/uhmd"]),
        (os.path.join(root, "perfbench"),
         ["go", "build", "-o", os.path.join(bins, "perfbench"), "."]),
    ]
    for cwd, cmd in builds:
        if subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    cmd = [os.path.join(bins, "perfbench"),
           "--uhmd", os.path.join(bins, "uhmd"),
           "--work", os.path.join(out, "work")] + sys.argv[1:]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
