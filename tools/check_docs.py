#!/usr/bin/env python3
"""Documentation link checker (stdlib only; the CI docs job runs it).

Scans the repository's markdown documentation for relative links and
verifies every target exists.  External links (``http(s)://``,
``mailto:``) are skipped — CI must not depend on network reachability —
and intra-page anchors (``#...``) are checked only for non-emptiness.

Backticked repo-rooted paths (`` `src/...` ``, `` `tests/...` ``, and the
other top-level directories in :data:`PATH_ROOTS`) must exist too, so a
module table or test pointer cannot outlive the code it names.  A
pytest node id (``file.py::Test``) is checked by its file part; a glob
(``BENCH_*.json``) must match at least one file.

Usage::

    python tools/check_docs.py [repo_root]

Exit status 0 when every link and path resolves, 1 otherwise (each
broken one is reported on stderr as ``file:line: target``).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Markdown files whose links are checked, relative to the repo root.
DOC_FILES = (
    "README.md",
    "docs/ARCHITECTURE.md",
    "benchmarks/README.md",
    "ROADMAP.md",
)

#: ``[text](target)`` — good enough for the docs in this repository
#: (no nested brackets, no reference-style links).
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Top-level directories whose backticked paths are checked.
PATH_ROOTS = ("src", "tests", "tools", "benchmarks", "examples", "perfbench", "docs")

#: A backtick span holding nothing but a repo-rooted path.
PATH_PATTERN = re.compile(r"`((?:%s)/[^`\s]*)`" % "|".join(PATH_ROOTS))


def iter_matches(path: Path, pattern: re.Pattern):
    """Yield ``(line_number, group 1)`` for every ``pattern`` match in a file."""
    for line_number, line in enumerate(path.read_text().splitlines(), start=1):
        for match in pattern.finditer(line):
            yield line_number, match.group(1)


def path_exists(root: Path, target: str) -> bool:
    """Whether a backticked repo-rooted path names something that exists."""
    target = target.partition("::")[0]
    if any(char in target for char in "*?["):
        return any(root.glob(target))
    return (root / target).exists()


def check_file(root: Path, relative: str) -> list[str]:
    """Broken links and paths of one document, as ``file:line: target``."""
    path = root / relative
    if not path.exists():
        return [f"{relative}: file missing"]
    problems = []
    for line_number, target in iter_matches(path, PATH_PATTERN):
        if not path_exists(root, target):
            problems.append(f"{relative}:{line_number}: `{target}`")
    for line_number, target in iter_matches(path, LINK_PATTERN):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        base, _, anchor = target.partition("#")
        if not base:
            if not anchor:
                problems.append(f"{relative}:{line_number}: empty link target")
            continue
        resolved = (path.parent / base).resolve()
        if not resolved.exists():
            problems.append(f"{relative}:{line_number}: {target}")
    return problems


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    problems: list[str] = []
    checked = 0
    for relative in DOC_FILES:
        if not (root / relative).exists():
            problems.append(f"{relative}: file missing")
            continue
        checked += 1
        problems.extend(check_file(root, relative))
    if problems:
        for problem in problems:
            print(f"broken link: {problem}", file=sys.stderr)
        return 1
    print(f"docs ok: {checked} files, all relative links and paths resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
