#!/usr/bin/env python3
"""Docs lint: intra-repo link integrity plus CLI flag-table drift.

Two checks, both stdlib-only:

1. Every relative markdown link in README.md and docs/*.md must point
   at a file that exists in the repo. External links (with a scheme),
   pure anchors, and links that resolve outside the repo root (GitHub
   web paths like the CI badge) are skipped.

2. The flag tables in docs/OPERATIONS.md must match the binary's own
   --help output, per subcommand and in both directions: a flag added
   to the CLI without a table row fails, and so does a table row for a
   flag the CLI no longer has.

Usage: tools/check_docs.py [--tadfa PATH] [--skip-flags]
"""

import argparse
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# OPERATIONS.md section heading -> argv tail whose --help defines it.
SECTIONS = {
    "`tadfa` (compile mode)": [],
    "`tadfa serve`": ["serve"],
    "`tadfa client`": ["client"],
}

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# A flag *definition* line in --help output: indented, flag first.
HELP_FLAG_RE = re.compile(r"\s+(--[a-zA-Z][a-zA-Z0-9-]*)")
# A flag-table row in the docs: "| `--flag...` | meaning |".
TABLE_FLAG_RE = re.compile(r"\|\s*`(--[a-zA-Z][a-zA-Z0-9-]*)")


def check_links(errors):
    for md in [REPO / "README.md"] + sorted((REPO / "docs").rglob("*.md")):
        for lineno, line in enumerate(md.read_text().splitlines(), 1):
            for target in LINK_RE.findall(line):
                if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # scheme
                    continue
                if target.startswith("#"):
                    continue
                path = target.split("#")[0]
                resolved = (md.parent / path).resolve()
                if not resolved.is_relative_to(REPO):
                    continue  # GitHub web path (e.g. the CI badge)
                if not resolved.exists():
                    errors.append(
                        f"{md.relative_to(REPO)}:{lineno}: broken link "
                        f"'{target}'"
                    )


def help_flags(tadfa, subcommand):
    out = subprocess.run(
        [str(tadfa)] + subcommand + ["--help"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    flags = set()
    for line in out.splitlines():
        if line.startswith("usage:") or line.lstrip().startswith("./"):
            continue  # synopsis lines mention other subcommands' flags
        m = HELP_FLAG_RE.match(line)
        if m:
            flags.add(m.group(1))
    return flags


def documented_flags():
    """Flags per OPERATIONS.md section, from its table rows."""
    sections = {}
    current = None
    for line in (REPO / "docs/OPERATIONS.md").read_text().splitlines():
        if line.startswith("## "):
            title = line[3:].strip()
            current = title if title in SECTIONS else None
            sections.setdefault(current, set())
        m = TABLE_FLAG_RE.match(line)
        if m and current is not None:
            sections[current].add(m.group(1))
    return sections


def check_flags(tadfa, errors):
    docs = documented_flags()
    for title, subcommand in SECTIONS.items():
        if title not in docs:
            errors.append(f"docs/OPERATIONS.md: missing section '## {title}'")
            continue
        actual = help_flags(tadfa, subcommand)
        name = " ".join(["tadfa"] + subcommand) or "tadfa"
        for flag in sorted(actual - docs[title]):
            errors.append(
                f"docs/OPERATIONS.md: '{name} --help' defines {flag} "
                f"but the '{title}' table has no row for it"
            )
        for flag in sorted(docs[title] - actual):
            errors.append(
                f"docs/OPERATIONS.md: '{title}' table documents {flag} "
                f"but '{name} --help' does not define it"
            )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--tadfa",
        default=str(REPO / "build/tadfa"),
        help="tadfa binary to read --help from (default: build/tadfa)",
    )
    ap.add_argument(
        "--skip-flags",
        action="store_true",
        help="only check links (no built binary needed)",
    )
    args = ap.parse_args()

    errors = []
    check_links(errors)
    if not args.skip_flags:
        tadfa = Path(args.tadfa)
        if not tadfa.exists():
            errors.append(f"tadfa binary not found at {tadfa}")
        else:
            check_flags(tadfa, errors)

    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if errors:
        print(f"{len(errors)} docs error(s)", file=sys.stderr)
        return 1
    print("docs OK: links resolve, flag tables match --help")
    return 0


if __name__ == "__main__":
    sys.exit(main())
