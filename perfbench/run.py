#!/usr/bin/env python3
"""Build and run lrcex's benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload batch-corpus --seed 1 --seconds 24 --trace 0

Builds cexd and the lrbench command from source into the build directory
($CARGO_TARGET_DIR, default .bench_build) with every Go cache and temporary
file kept inside it, then runs lrbench with the given arguments. lrbench
prints the metrics and, as its last line, the result object. See
perfbench/README.md.
"""

import os
import signal
import subprocess
import sys

# lrbench ends well within this; the limit only guards against a hang.
RUN_TIMEOUT_S = 170


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    for d in ("tmp", "config", "bin"):
        os.makedirs(os.path.join(build, d), exist_ok=True)

    cexd = os.path.join(build, "bin", "cexd")
    lrbench = os.path.join(build, "bin", "lrbench")
    for cwd, out, pkg in ((root, cexd, "./cmd/cexd"),
                          (os.path.join(root, "perfbench"), lrbench, "./cmd/lrbench")):
        built = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if built.returncode != 0:
            sys.stderr.write("run.py: building %s failed:\n%s" % (pkg, built.stdout))
            return 1

    cmd = [lrbench, "-root", root, "-cexd", cexd,
           "-work", os.path.join(build, "work")] + sys.argv[1:]
    # A session of its own, so a hang can be stopped together with the cexd
    # children lrbench started.
    proc = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: lrbench did not finish in %d s\n" % RUN_TIMEOUT_S)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
