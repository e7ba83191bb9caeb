#!/usr/bin/env python3
"""Counts the lines of non-test Rust in the workspace.

Counts every `.rs` file under `crates/`, `src/` and `examples/`, skipping
any `tests/` directory and `network_tests.rs`. Each file counts its lines
before the first line that starts with `#[cfg(test)]` (its unit tests).
Prints one number: the total.

Run from anywhere: `python3 scripts/loc.py`.
"""

import pathlib
import sys

ROOTS = ("crates", "src", "examples")
SKIPPED_FILES = {"network_tests.rs"}


def non_test_lines(path):
    count = 0
    with path.open(encoding="utf-8") as f:
        for line in f:
            if line.startswith("#[cfg(test)]"):
                break
            count += 1
    return count


def main():
    repo = pathlib.Path(__file__).resolve().parent.parent
    total = 0
    for root in ROOTS:
        for path in sorted((repo / root).rglob("*.rs")):
            rel = path.relative_to(repo)
            if "tests" in rel.parts[:-1] or path.name in SKIPPED_FILES:
                continue
            total += non_test_lines(path)
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
