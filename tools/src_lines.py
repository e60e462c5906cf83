#!/usr/bin/env python3
"""Count the library lines of every crate, and compare with a revision.

Run from anywhere inside the repository:

    python3 tools/src_lines.py [REV]

Library lines are the physical lines of `crates/*/src/**/*.rs`, blank
and comment lines included, minus the lines of every item marked
`#[cfg(test)]`. Such an item runs from its `#[cfg(test)]` line through
the brace that closes its body, or through its `;` when it has no body
(`mod tests;`). Braces inside comments, string and character literals
are not counted when finding that closing brace.

Without REV the tool prints the working tree's count per crate and in
total. With REV (any revision `git` accepts) it also reads the same
files at REV and prints REV's counts and the difference, working tree
minus REV. Uses the Python standard library only.
"""

import argparse
import os
import subprocess
import sys
from collections import defaultdict


def ident_before(line, i):
    """Whether an identifier character precedes position `i`."""
    return i > 0 and (line[i - 1].isalnum() or line[i - 1] == "_")


def test_item_lines(lines):
    """Line indices that belong to `#[cfg(test)]` items."""
    skipped = set()
    # Lexer state carried across lines: inside a block comment (nesting
    # depth), a string, or a raw string (its closing `"###`).
    block, in_str, raw_end = 0, False, None
    item_start, depth, opened = None, 0, False
    for n, line in enumerate(lines):
        i = 0
        if item_start is None and block == 0 and not in_str and raw_end is None:
            at = line.find("#[cfg(test)]")
            if at >= 0 and not line[:at].strip():
                item_start, depth, opened = n, 0, False
                i = at + len("#[cfg(test)]")
        while i < len(line):
            c = line[i]
            if block:
                if line.startswith("*/", i):
                    block, i = block - 1, i + 2
                elif line.startswith("/*", i):
                    block, i = block + 1, i + 2
                else:
                    i += 1
                continue
            if raw_end is not None:
                if line.startswith(raw_end, i):
                    i, raw_end = i + len(raw_end), None
                else:
                    i += 1
                continue
            if in_str:
                if c == "\\":
                    i += 2
                    continue
                in_str = c != '"'
                i += 1
                continue
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                block, i = 1, i + 2
                continue
            if c == "r" and not ident_before(line, i - (line[i - 1 : i] == "b")):
                j = i + 1
                while j < len(line) and line[j] == "#":
                    j += 1
                if j < len(line) and line[j] == '"':
                    raw_end = '"' + "#" * (j - i - 1)
                    i = j + 1
                    continue
            if c == '"':
                in_str, i = True, i + 1
                continue
            if c == "'":
                # A character literal ('{', '\n', '\u{7f}'); a lifetime
                # has no closing quote right after its first character.
                if line.startswith("\\", i + 1):
                    close = line.find("'", i + 2)
                    i = close + 1 if close > 0 else i + 1
                    continue
                if i + 2 < len(line) and line[i + 2] == "'":
                    i += 3
                    continue
            if item_start is not None:
                if c == "{":
                    depth, opened = depth + 1, True
                elif c == "}":
                    depth -= 1
                elif c == ";" and not opened:
                    opened, depth = True, 0
                if opened and depth == 0:
                    skipped.update(range(item_start, n + 1))
                    item_start = None
            i += 1
    if item_start is not None:
        skipped.update(range(item_start, len(lines)))
    return skipped


def library_lines(text):
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return len(lines) - len(test_item_lines(lines))


def git(root, *args):
    return subprocess.run(
        ["git", *args], cwd=root, check=True, capture_output=True, text=True
    ).stdout


def crate_of(path):
    """`crates/<name>/src/...rs` -> name, or None for any other path."""
    parts = path.split("/")
    if len(parts) >= 4 and parts[0] == "crates" and parts[2] == "src" and path.endswith(".rs"):
        return parts[1]
    return None


def count_tree(root):
    counts = defaultdict(int)
    crates = os.path.join(root, "crates")
    for name in sorted(os.listdir(crates)):
        src = os.path.join(crates, name, "src")
        for dirpath, _, files in os.walk(src):
            for f in files:
                if f.endswith(".rs"):
                    with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                        counts[name] += library_lines(fh.read())
    return counts


def count_rev(root, rev):
    counts = defaultdict(int)
    for path in git(root, "ls-tree", "-r", "--name-only", rev, "crates").splitlines():
        name = crate_of(path)
        if name is not None:
            counts[name] += library_lines(git(root, "show", f"{rev}:{path}"))
    return counts


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev", nargs="?", help="revision to compare the working tree with")
    args = ap.parse_args()
    root = git(os.path.dirname(os.path.abspath(__file__)), "rev-parse", "--show-toplevel").strip()
    now = count_tree(root)
    if args.rev is None:
        width = max(len(c) for c in [*now, "total"])
        for name in sorted(now):
            print(f"{name:<{width}} {now[name]:>7}")
        print(f"{'total':<{width}} {sum(now.values()):>7}")
        return 0
    try:
        then = count_rev(root, args.rev)
    except subprocess.CalledProcessError as e:
        sys.exit(f"src_lines: git failed on `{args.rev}`: {e.stderr.strip()}")
    label = args.rev if len(args.rev) <= 12 else args.rev[:12]
    names = sorted(set(now) | set(then))
    width = max(len(c) for c in [*names, "total"])
    col = max(len(label), 7)
    print(f"{'crate':<{width}} {label:>{col}} {'now':>7} {'diff':>7}")
    for name in [*names, "total"]:
        a = sum(then.values()) if name == "total" else then.get(name, 0)
        b = sum(now.values()) if name == "total" else now.get(name, 0)
        print(f"{name:<{width}} {a:>{col}} {b:>7} {b - a:>+7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
