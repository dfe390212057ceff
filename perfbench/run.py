#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Usage, from any directory:

    python3 perfbench/run.py --workload explore --seed 1 --seconds 10 --trace 0

Builds the Go program in this directory (a module of its own that uses the
repository's module through a replace directive) and runs it with the given
arguments from the repository root. Every build and temporary file goes
under .bench_build/ at the repository root, or under $CARGO_TARGET_DIR when
that is set. A traced run (--trace 1) also writes its spans there, as
spans-<workload>-seed<seed>.jsonl, unless --spans names another file.

The program's output passes through unchanged; its last line is the JSON
result. Outside a checkout of the repository the build fails and this
script exits with a non-zero code.
"""

import os
import subprocess
import sys


def flag_value(args, name):
    """Return the value of --name in args (as '--name v' or '--name=v')."""
    for i, a in enumerate(args):
        if a == name and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(name + "="):
            return a[len(name) + 1:]
    return None


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        sys.stderr.write("perfbench: %s is not the repository root (no go.mod)\n" % root)
        return 1
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    dirs = {name: os.path.join(build, name)
            for name in ("gocache", "gotmp", "gopath", "config", "tmp", "perfbench")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=dirs["gocache"], GOTMPDIR=dirs["gotmp"], GOPATH=dirs["gopath"],
               XDG_CONFIG_HOME=dirs["config"], TMPDIR=dirs["tmp"],
               GOFLAGS="-mod=readonly", GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off")
    binary = os.path.join(dirs["perfbench"], "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1

    args = sys.argv[1:]
    if flag_value(args, "--trace") == "1" and flag_value(args, "--spans") is None:
        spans = "spans-%s-seed%s.jsonl" % (flag_value(args, "--workload"), flag_value(args, "--seed"))
        args += ["--spans", os.path.join(dirs["perfbench"], spans)]
    return subprocess.run([binary] + args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
