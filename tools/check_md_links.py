#!/usr/bin/env python3
"""Markdown link checker for this repo's docs.

Validates every inline markdown link/image in the given files:
  - relative file links must point at an existing file or directory
    (resolved against the linking file's directory);
  - `#fragment` anchors (same-file or on a .md target) must match a
    heading in the target, using GitHub's anchor slugification;
  - http(s)/mailto links are skipped (no network in CI).

It also validates repo-path references written in backticks (the
dominant cross-link style in these docs): a `...` token is checked when
it starts with a known top-level directory (`src/`, `docs/`, `tests/`,
`bench/`, `examples/`, `tools/`, `.github/`) or names a root-level
`.md` file — those must exist relative to the repo root. Layer-relative
mentions like `engine.hpp` inside a table are skipped on purpose (they
are prose, not pointers), as are `.json` names, which usually refer to
generated artifacts.

Symbol references in backticks are checked too: a `Name::member` token
(optionally called, like `Name::member()` or `Name::member(k)`) fails
when `member` occurs nowhere under `src/` as a whole word, so a doc that
names a deleted or renamed function fails instead of going stale.

Usage: tools/check_md_links.py README.md docs/*.md
       tools/check_md_links.py --selftest
Exits 1 listing every broken link, 0 when all resolve. --selftest runs
the checker over built-in fixtures and exits 0 when it behaves.
"""
import re
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKED_PREFIXES = ("src/", "docs/", "tests/", "bench/", "examples/",
                    "tools/", ".github/")
BACKTICK_RE = re.compile(r"`([^`\s]+)`")
ROOT_FILE_RE = re.compile(r"^[A-Za-z0-9_.-]+\.md$")
# `Name::member`, `A::B::member`, `Name::member()`, `Name::member(arg)`.
SYMBOL_RE = re.compile(r"^[A-Za-z_]\w*(?:::[A-Za-z_]\w*)*::([A-Za-z_]\w*)"
                       r"(?:\([^()]*\))?$")
WORD_RE = re.compile(r"\w+")
SOURCE_SUFFIXES = (".hpp", ".cpp", ".h", ".cc")

# Inline links/images: [text](target) — tolerates one level of nested
# brackets in the text, strips optional '"title"' suffixes in the target.
LINK_RE = re.compile(r"!?\[(?:[^\[\]]|\[[^\]]*\])*\]\(([^()\s]+(?:\([^)]*\))?)\)")
HEADING_RE = re.compile(r"^\s{0,3}(#{1,6})\s+(.*?)\s*#*\s*$")
CODE_FENCE_RE = re.compile(r"^\s*(```|~~~)")


def github_anchor(heading: str) -> str:
    """GitHub's heading → anchor slug: strip markup-ish punctuation,
    lowercase, spaces to hyphens."""
    text = re.sub(r"[`*_]", "", heading)
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # linked headings
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def headings_of(path: Path) -> set[str]:
    anchors: set[str] = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING_RE.match(line)
        if match:
            anchors.add(github_anchor(match.group(2)))
    return anchors


def links_of(path: Path):
    in_fence = False
    for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in LINK_RE.finditer(line):
            target = match.group(1).split('"')[0].strip()
            if target:
                yield number, target


def backtick_tokens_of(path: Path):
    """Every backtick token outside fenced code, with its line number."""
    in_fence = False
    for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in BACKTICK_RE.finditer(line):
            yield number, match.group(1)


def repo_paths_of(path: Path):
    """Backtick tokens that claim to be repo paths (see module doc)."""
    for number, token in backtick_tokens_of(path):
        if token.startswith(CHECKED_PREFIXES) or ROOT_FILE_RE.match(token):
            yield number, token


def symbols_of(path: Path):
    """Backtick `Name::member` tokens with their member name."""
    for number, token in backtick_tokens_of(path):
        match = SYMBOL_RE.match(token)
        if match:
            yield number, token, match.group(1)


def source_words(source_root: Path) -> set[str]:
    """Every identifier-like word in the source tree."""
    words: set[str] = set()
    for path in source_root.rglob("*"):
        if path.suffix in SOURCE_SUFFIXES and path.is_file():
            words.update(WORD_RE.findall(path.read_text(encoding="utf-8")))
    return words


def check(names: list[str], source_root: Path) -> list[str]:
    errors: list[str] = []
    words = source_words(source_root)
    for name in names:
        source = Path(name)
        if not source.exists():
            errors.append(f"{name}: file not found")
            continue
        for line, target in links_of(source):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            resolved = (source.parent / path_part).resolve() if path_part \
                else source.resolve()
            if not resolved.exists():
                errors.append(f"{name}:{line}: broken link '{target}' "
                              f"({resolved} does not exist)")
                continue
            if fragment:
                if resolved.is_dir() or resolved.suffix.lower() != ".md":
                    continue  # anchors into non-markdown: not checkable
                if fragment.lower() not in headings_of(resolved):
                    errors.append(f"{name}:{line}: broken anchor "
                                  f"'{target}' (no heading "
                                  f"'#{fragment}' in {resolved.name})")
        for line, token in repo_paths_of(source):
            # Strip trailing wildcard-ish suffixes ("src/foo/*", "src/").
            candidate = token.rstrip("*")
            if not (REPO_ROOT / candidate).exists():
                errors.append(f"{name}:{line}: stale repo path "
                              f"`{token}` (no such file in the repo)")
        for line, token, member in symbols_of(source):
            if member not in words:
                errors.append(f"{name}:{line}: stale symbol `{token}` "
                              f"('{member}' occurs nowhere under src/)")
    return errors


def selftest() -> int:
    """Runs check() over fixtures with known verdicts."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "src").mkdir()
        (root / "src" / "engine.hpp").write_text(
            "struct Engine { void run_round(); int slot_of_; };\n",
            encoding="utf-8")
        doc = root / "doc.md"
        doc.write_text(
            "# Title\n"
            "`Engine::run_round`, `Engine::run_round()` and\n"
            "`csaw::Engine::slot_of_` resolve; [here](#title) too.\n"
            "`Engine::run_residency` does not.\n"
            "```\n`Engine::inside_a_fence` is skipped.\n```\n"
            "[gone](missing.md) is broken.\n",
            encoding="utf-8")
        errors = check([str(doc)], root / "src")
    expected = ["doc.md:4: stale symbol `Engine::run_residency`",
                "doc.md:8: broken link 'missing.md'"]
    ok = len(errors) == len(expected) and all(
        any(want in error for error in errors) for want in expected)
    print("selftest " + ("passed" if ok else "FAILED"))
    if not ok:
        for error in errors:
            print(f"  got: {error}")
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[1] == "--selftest":
        return selftest()
    if len(argv) < 2:
        print(__doc__)
        return 2
    errors = check(argv[1:], REPO_ROOT / "src")
    if errors:
        print(f"{len(errors)} broken link(s):")
        for error in errors:
            print(f"  {error}")
        return 1
    print(f"All markdown links resolve ({len(argv) - 1} file(s) checked).")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
