#!/usr/bin/env python3
"""Check that the repo's docs and code point only at docs that exist.

Scans README.md, docs/*.md and the other top-level *.md files for two
kinds of reference and verifies each one resolves:

* relative [text](target) links: absolute URLs, mailto: and pure
  #fragments are skipped, a #fragment is stripped, and the target is
  resolved relative to the file that links it;
* repo paths written in backticks: a token that starts with a top-level
  directory (`src/...`, `docs/...`, ...) or names a top-level file such
  as `ROADMAP.md` is resolved relative to the repo root. A trailing
  :line or :line-line suffix is stripped; glob and brace forms
  (`bench/*.cpp`, `serve/service.{hpp,cpp}`) are skipped. Only README.md,
  ROADMAP.md and docs/*.md describe the current tree, so only their
  backticked paths are checked; the other top-level files record past
  trees or quote other work.

It also scans the C++ sources under src/, tests/, bench/, tools/,
examples/ and fuzz/ for every *.md name they cite (`docs/SOAK.md`,
`ROADMAP.md`) and resolves each relative to the repo root.

Exits non-zero listing every dangling reference, so docs
cross-references cannot rot silently.

Usage: scripts/check_doc_links.py [repo_root]
"""

import pathlib
import re
import sys

# [text](target) — target must not start with a scheme. Nested parens and
# images are rare enough in this repo that the simple pattern is right.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")

# `token` — inline code spans (which may wrap a line); the first word is
# the candidate path. Fenced blocks are blanked out before matching.
CODE = re.compile(r"`([^`]+)`")
FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
TOP_DIRS = ("src/", "bench/", "tools/", "tests/", "docs/", "scripts/",
            "perfbench/", "examples/", "fuzz/", ".github/")
# Upper-case first letter: keeps generated names such as src_lines.json
# and compile_commands.json out.
TOP_FILE = re.compile(r"[A-Z][A-Za-z_]*\.(md|json)")
LINE_SUFFIX = re.compile(r":\d+(-\d+)?$")
GLOB_CHARS = set("*?[]{}")
CURRENT_TOP = {"README.md", "ROADMAP.md"}
CODE_DIRS = ("src", "tests", "bench", "tools", "examples", "fuzz")
CODE_SUFFIXES = {".cpp", ".hpp", ".h"}
MD_NAME = re.compile(r"(?<![\w./-])[\w./-]*\w\.md\b")


def doc_files(root: pathlib.Path):
    yield from sorted(root.glob("*.md"))
    yield from sorted((root / "docs").glob("*.md"))


def code_path(span: str):
    """The repo path a backticked span names, or None if it names none."""
    words = span.split()
    if not words:
        return None
    token = LINE_SUFFIX.sub("", words[0])
    if GLOB_CHARS & set(token):
        return None
    if token.startswith(TOP_DIRS) or TOP_FILE.fullmatch(token):
        return token
    return None


def code_files(root: pathlib.Path):
    for top in CODE_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix in CODE_SUFFIXES and path.is_file():
                yield path


def without_fences(text: str) -> str:
    """`text` with fenced code blocks blanked, line numbers kept."""
    return FENCE.sub(lambda m: "\n" * m.group(0).count("\n"), text)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    broken = []
    links = 0
    paths = 0
    for md in doc_files(root):
        name = md.relative_to(root)
        text = md.read_text(encoding="utf-8")
        for match in LINK.finditer(text):
            target = match.group(1)
            if target.startswith(SKIP_PREFIXES):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            links += 1
            if not (md.parent / path).resolve().exists():
                line = line_of(text, match.start())
                broken.append(f"dangling link: {name}:{line}: {target}")
        if md.parent == root and md.name not in CURRENT_TOP:
            continue
        prose = without_fences(text)
        for match in CODE.finditer(prose):
            path = code_path(match.group(1))
            if path is None:
                continue
            paths += 1
            if not (root / path).exists():
                line = line_of(prose, match.start())
                broken.append(f"dangling path: {name}:{line}: {path}")
    cited = 0
    for source in code_files(root):
        name = source.relative_to(root)
        text = source.read_text(encoding="utf-8")
        for match in MD_NAME.finditer(text):
            cited += 1
            if not (root / match.group(0)).exists():
                line = line_of(text, match.start())
                broken.append(f"dangling doc: {name}:{line}: {match.group(0)}")
    for b in broken:
        print(b, file=sys.stderr)
    print(f"checked {links} relative links, {paths} backticked paths and "
          f"{cited} docs cited in code, {len(broken)} dangling")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
