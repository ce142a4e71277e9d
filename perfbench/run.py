#!/usr/bin/env python3
"""Build and run the skyward benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sampling_saturation, daily_routing, suite_quick.

Builds the `perfbench` Cargo package (a workspace of its own next to the
repository's crates) in release mode into $CARGO_TARGET_DIR, default
`.bench_build` at the checkout root, then runs it from the checkout root.
The benchmark's standard output is passed through; its last line is the
result JSON. `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer ones and writes the spans to perfbench/out/.

Every result is also appended to perfbench/out/history.jsonl together
with the host's core count, `rustc -V`, the git commit (when the checkout
is a git repository) and a hash of the Rust sources, so that numbers can
be compared across commits. Seed 42 is the default seed, whose simulated
outcomes are pinned in perfbench/pinned.txt; seed 1009 is the held-out
seed, to be used only to confirm a claim made on seed 42.

Exits non-zero without printing a result when the checkout is incomplete
or the build or any run fails.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")


def command_output(args):
    """First line of a command's output, or None if it cannot run."""
    try:
        done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip().splitlines()[0] if done.stdout.strip() else None


def source_hash():
    """SHA-256 over the workspace's Rust sources and manifests."""
    digest = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "out"))
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    with open(os.path.join(ROOT, "Cargo.lock"), "rb") as f:
        digest.update(f.read())
    return digest.hexdigest()


def main():
    for needed in ("Cargo.toml", "Cargo.lock", "crates", "tests"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {ROOT} is not a skyward checkout (no {needed})", file=sys.stderr)
            return 2

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "perfbench")
    run = subprocess.run(
        [exe, *sys.argv[1:], "--root", ROOT, "--out", OUT],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        return run.returncode or 1
    # Print the record fields before the benchmark's own output, so the
    # result JSON stays the last line.
    meta = next((json.loads(l[len("# meta "):]) for l in lines if l.startswith("# meta ")), {})
    record = {
        "meta": meta,
        "rustc": command_output(["rustc", "-V"]),
        "commit": command_output(["git", "rev-parse", "HEAD"])
        if os.path.isdir(os.path.join(ROOT, ".git"))
        else None,
        "source_sha256": source_hash(),
    }
    print("# record " + json.dumps({k: v for k, v in record.items() if k != "meta"}))
    sys.stdout.write(run.stdout)
    record["result"] = json.loads(lines[-1])
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "history.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
