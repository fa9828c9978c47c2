#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold-compile --seed 1 --seconds 10 --trace 0

Workloads: cold-compile, pgo-inter, emulate, campaign (perfbench/README.md).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Build output goes to standard
error; scratch files and per-run details go to perfbench/_work/.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORK = os.path.join("perfbench", "_work")


def commit():
    """The source revision, when the checkout is a git repository."""
    if not os.path.isdir(".git") or shutil.which("git") is None:
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                       text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    if not os.path.isfile(os.path.join("perfbench", "run.py")):
        sys.exit("perfbench: run from the root of the checkout")
    save_all = os.environ.get("WARIO_SAVE_ALL", "")
    if save_all not in ("", "0"):
        sys.exit("perfbench: WARIO_SAVE_ALL is set; it changes every "
                 "simulated metric")
    if shutil.which("dune") is None:
        sys.exit("perfbench: dune is not on PATH")
    env = dict(os.environ)
    # Keep every build artefact and temporary file inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    env["TMPDIR"] = os.path.abspath(os.path.join(WORK, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0 or not os.path.isfile(EXE):
        sys.exit("perfbench: build failed")
    args = [EXE, "--work-dir", WORK, "--commit", commit()] + sys.argv[1:]
    sys.stdout.flush()
    sys.exit(subprocess.run(args, env=env).returncode)


if __name__ == "__main__":
    main()
