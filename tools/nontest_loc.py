#!/usr/bin/env python3
"""Counts the workspace's non-test lines of Rust.

The rule: every `.rs` file under `crates/` that is not inside a `tests/`
directory, up to the file's first `#[cfg(test)]` line, without blank lines
and `//` comment lines (doc comments included). Prints the total, then one
line per crate.

Usage: python3 tools/nontest_loc.py [REPO_ROOT]
"""

import sys
from collections import Counter
from pathlib import Path


def nontest_lines(path):
    count = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        text = line.strip()
        if text.startswith("#[cfg(test)]"):
            break
        if text and not text.startswith("//"):
            count += 1
    return count


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent)
    crates = root / "crates"
    per_crate = Counter()
    for path in sorted(crates.rglob("*.rs")):
        rel = path.relative_to(crates)
        if "tests" in rel.parts[1:-1]:
            continue
        per_crate[rel.parts[0]] += nontest_lines(path)
    print(f"non-test LoC: {sum(per_crate.values())}")
    for crate, count in sorted(per_crate.items()):
        print(f"  {crate:<12} {count:>6}")


if __name__ == "__main__":
    main()
