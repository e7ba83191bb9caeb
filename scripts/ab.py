#!/usr/bin/env python3
"""Interleaved A/B benchmark of a base revision against HEAD.

    python3 scripts/ab.py REV [--pairs N] [--workload W ...] [--seed S]
                              [--seconds S] [--workdir DIR] [--json FILE]

Run from anywhere inside a checkout. Exports the committed trees of REV and
HEAD (`git archive`, so uncommitted edits are not measured and nothing is
registered in the repository) into two directories under --workdir, each
with its own Cargo target directory, and builds the benchmark on both sides.
Then, for each of N pairs, runs `perfbench/run.py --trace 0` once per side
and workload, alternating which side goes first, so slow drift of the host
hits both sides alike.

Prints one table per workload: for each end-to-end metric, each side's
median and quartiles over the N runs, the median ratio HEAD / base, and how
many pairs HEAD won (better in the direction BENCHMARK.json gives; ties are
not wins). Exits non-zero if a build or a run fails.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def git(*args, cwd):
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(repo, sha, dest):
    """Writes the committed tree of `sha` into `dest` (a fresh directory)."""
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", sha],
        cwd=repo, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_bench(side, workload, seed, seconds):
    """One `run.py` invocation; returns its metrics as {name: value}."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(side["target"]))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=side["root"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"ab.py: {side['name']} {workload} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    return {k: m["value"] for k, m in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def fmt(x):
    return f"{x:.4g}"


def report(workload, runs, better):
    print(f"\n### {workload} ({len(runs)} pairs)\n")
    print("| metric | base median [q1, q3] | HEAD median [q1, q3] | HEAD/base | HEAD wins |")
    print("|---|---|---|---|---|")
    for name in runs[0]["base"]:
        base = [r["base"][name] for r in runs]
        head = [r["head"][name] for r in runs]
        bq1, bmed, bq3 = quartiles(base)
        hq1, hmed, hq3 = quartiles(head)
        ratio = f"{hmed / bmed:.3f}" if bmed else "-"
        sign = {"higher": 1, "lower": -1}.get(better.get(name))
        wins = (f"{sum(sign * (h - b) > 0 for b, h in zip(base, head))}/{len(runs)}"
                if sign else "-")
        print(f"| `{name}` | {fmt(bmed)} [{fmt(bq1)}, {fmt(bq3)}] "
              f"| {fmt(hmed)} [{fmt(hq1)}, {fmt(hq3)}] | {ratio} | {wins} |")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="base revision to compare HEAD against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    help="workload name (repeatable; default: all in BENCHMARK.json)")
    ap.add_argument("--seed", type=int, default=9000)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--workdir", type=Path,
                    help="where to export both trees (default: a new temporary directory)")
    ap.add_argument("--json", type=Path, help="also write every run's metrics here")
    args = ap.parse_args()

    repo = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    bench = json.loads((repo / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="ab-"))
    sides = {}
    for name, rev in (("base", args.rev), ("head", "HEAD")):
        sha = git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=repo)
        root = workdir / f"{name}-{sha[:12]}"
        if not root.exists():
            export(repo, sha, root)
        sides[name] = {"name": name, "sha": sha, "root": root,
                       "target": workdir / f"{name}-{sha[:12]}-target"}
        print(f"{name}: {rev} = {sha[:12]}, exported to {root}", file=sys.stderr)

    # A short first run per side builds the benchmark outside the pairs.
    for side in sides.values():
        print(f"building {side['name']} ...", file=sys.stderr)
        run_bench(side, workloads[0], args.seed, 0)

    runs = {w: [] for w in workloads}
    for k in range(args.pairs):
        order = ("base", "head") if k % 2 == 0 else ("head", "base")
        for w in workloads:
            pair = {}
            for name in order:
                pair[name] = run_bench(sides[name], w, args.seed, args.seconds)
            runs[w].append(pair)
            print(f"pair {k + 1}/{args.pairs} {w}: sim_ops_per_s "
                  f"base {pair['base'].get('sim_ops_per_s', 0):.4g}, "
                  f"head {pair['head'].get('sim_ops_per_s', 0):.4g}",
                  file=sys.stderr)

    print(f"A/B: base {args.rev} ({sides['base']['sha'][:12]}) vs HEAD "
          f"({sides['head']['sha'][:12]}), seed {args.seed}, {args.seconds} s per run, "
          f"alternating order")
    if args.json:
        args.json.write_text(json.dumps(
            {"base": sides["base"]["sha"], "head": sides["head"]["sha"],
             "seed": args.seed, "seconds": args.seconds, "runs": runs}, indent=1))
    for w in workloads:
        report(w, runs[w], better)


if __name__ == "__main__":
    main()
