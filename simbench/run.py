#!/usr/bin/env python3
"""Builds the simulator benchmark and runs one workload.

    python3 simbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout of the repository. It builds the
`simbench` package (release, offline) against the repository's crates,
into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs it with every
`ATR_*` variable removed from the environment, so no simulator knob leaks
in. The benchmark's standard output passes through unchanged; its last
line is the JSON result. See simbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "sim", "Cargo.toml")):
        sys.stderr.write(
            "simbench: the simulator sources (crates/) are missing; "
            "run from the root of a checkout of the repository\n"
        )
        return 2
    env = {k: v for k, v in os.environ.items() if not k.startswith("ATR_")}
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("simbench: build failed\n")
        return 1
    binary = os.path.join(target, "release", "simbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
