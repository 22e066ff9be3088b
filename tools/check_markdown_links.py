#!/usr/bin/env python3
"""Checks that links in the repo's markdown files resolve.

Scans every tracked *.md file for inline links/images `[text](target)`
and reference definitions `[ref]: target`, and fails (exit 1) listing
each target that does not resolve:

- relative file targets must exist on disk;
- `#anchor` fragments — both in-page (`#section`) and cross-file
  (`other.md#section`) — must name a heading in the target document,
  using GitHub's slugification (lowercase, punctuation stripped,
  spaces to hyphens, duplicates suffixed -1, -2, ...).

External links (http/https/mailto) are skipped — this is an offline
structural check, not a crawler.

It also scans the comments of the source files under src/, bench/ and
tools/ (C++ `//` and `/* */` comments, Python `#` comments) for
markdown file names such as `docs/cli.md`, and fails on each name that
matches no tracked file: a comment must not send the reader to a
document the repo does not have.

Usage: python3 tools/check_markdown_links.py [root_dir]
"""

import os
import re
import subprocess
import sys

# Inline [text](target) — target ends at the first unescaped ')' or
# space (markdown titles: [t](file "title")). Reference defs [r]: target.
INLINE_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
REF_DEF = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)", re.MULTILINE)
SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")

# Fenced code blocks must not contribute false links or headings.
FENCE = re.compile(r"```.*?```", re.DOTALL)

HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$", re.MULTILINE)
# Inline markup GitHub strips before slugifying heading text.
INLINE_CODE = re.compile(r"`([^`]*)`")
MD_LINK_TEXT = re.compile(r"\[([^\]]*)\]\([^)]*\)")


def github_slug(text):
    """GitHub's heading-to-anchor slug (ASCII approximation)."""
    text = INLINE_CODE.sub(r"\1", text)
    text = MD_LINK_TEXT.sub(r"\1", text)
    text = text.strip().lower()
    # Keep word characters, spaces and hyphens; drop the rest.
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_anchors(markdown_text):
    """The set of valid anchors for one document, with -N dedup."""
    anchors = set()
    counts = {}
    for match in HEADING.finditer(FENCE.sub("", markdown_text)):
        slug = github_slug(match.group(2))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


# Markdown names cited in source comments: a path-like token ending in
# ".md" (a bare "*.md" glob does not count).
MD_NAME = re.compile(r"(?<![\w./-])([\w./-]*\w\.md)\b")
CPP_COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)
PY_COMMENT = re.compile(r"#[^\n]*")
SOURCE_DIRS = ("src", "bench", "tools")
COMMENT_SYNTAX = {".h": CPP_COMMENT, ".cc": CPP_COMMENT,
                  ".cpp": CPP_COMMENT, ".py": PY_COMMENT}


def tracked_files(root):
    """Repo-relative paths git tracks; every file on disk without git."""
    try:
        listed = subprocess.run(
            ["git", "-C", root, "ls-files"], check=True,
            capture_output=True, text=True).stdout.split("\n")
        return {path for path in listed if path}
    except (OSError, subprocess.CalledProcessError):
        found = set()
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if d != ".git"]
            for name in filenames:
                found.add(os.path.relpath(os.path.join(dirpath, name), root))
        return found


def dangling_doc_names(root, tracked):
    """(source path, name) for each comment-cited .md that is not tracked."""
    known = set()
    for path in tracked:
        parts = path.split("/")
        # A citation may name the file with any trailing part of its path.
        for i in range(len(parts)):
            known.add("/".join(parts[i:]))
    dangling = []
    for path in sorted(tracked):
        if path.split("/")[0] not in SOURCE_DIRS:
            continue
        syntax = COMMENT_SYNTAX.get(os.path.splitext(path)[1])
        if syntax is None:
            continue
        with open(os.path.join(root, path), encoding="utf-8") as handle:
            text = handle.read()
        for comment in syntax.findall(text):
            for name in MD_NAME.findall(comment):
                parts = os.path.normpath(name).split("/")
                normalized = "/".join(p for p in parts if p not in (".", ".."))
                if normalized not in known:
                    dangling.append((path, name))
    return dangling


def markdown_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [
            d for d in dirnames
            if d not in {".git", "build", ".claude"}
            and not d.startswith("build-")
        ]
        for name in filenames:
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def check_file(path, root, anchor_cache):
    with open(path, encoding="utf-8") as handle:
        raw = handle.read()
    text = FENCE.sub("", raw)
    targets = INLINE_LINK.findall(text) + REF_DEF.findall(text)
    broken = []

    def anchors_of(md_path):
        md_path = os.path.normpath(md_path)
        if md_path not in anchor_cache:
            with open(md_path, encoding="utf-8") as target_handle:
                anchor_cache[md_path] = heading_anchors(target_handle.read())
        return anchor_cache[md_path]

    for target in targets:
        if target.startswith(SKIP_SCHEMES):
            continue
        resolved, _, fragment = target.partition("#")
        if resolved:
            if resolved.startswith("/"):
                candidate = os.path.join(root, resolved.lstrip("/"))
            else:
                candidate = os.path.join(os.path.dirname(path), resolved)
            if not os.path.exists(candidate):
                broken.append(target)
                continue
        else:
            candidate = path  # pure in-page anchor
        if fragment and candidate.endswith(".md"):
            if fragment.lower() not in anchors_of(candidate):
                broken.append(target)
    return broken


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    failures = 0
    checked = 0
    anchor_cache = {}
    for path in sorted(markdown_files(root)):
        checked += 1
        for target in check_file(path, root, anchor_cache):
            print(f"BROKEN {os.path.relpath(path, root)}: {target}")
            failures += 1
    print(f"checked {checked} markdown files: "
          f"{failures} broken link(s)/anchor(s)")
    dangling = dangling_doc_names(root, tracked_files(root))
    for path, name in dangling:
        print(f"DANGLING {path}: cites {name}, which is not a tracked file")
    print(f"checked source comments under {', '.join(SOURCE_DIRS)}: "
          f"{len(dangling)} dangling .md reference(s)")
    return 1 if failures or dangling else 0


if __name__ == "__main__":
    sys.exit(main())
