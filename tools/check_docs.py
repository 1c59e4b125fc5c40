#!/usr/bin/env python3
"""Documentation link checker (CI: the `docs` job).

Three gates over the repository's markdown:

  1. every relative link in *.md / docs/*.md resolves to a real file
     (fragments are stripped; absolute http(s)/mailto links are not
     fetched);
  2. every file under docs/ is reachable from README.md by following
     relative markdown links — no orphaned documentation;
  3. every `bench_<Name>` in markdown (CHANGES.md, the history, aside)
     is a target in bench/CMakeLists.txt — no retired bench is cited.

Exit code 0 = clean, 1 = any problem (each printed).
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# [text](target) — target up to the first ')' or whitespace.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Bench targets are CamelCase; `.bench_build` is a directory, not one.
BENCH_RE = re.compile(r"\bbench_([A-Z]\w*)")


def md_files():
    files = [f for f in os.listdir(REPO) if f.endswith(".md")]
    docs = os.path.join(REPO, "docs")
    if os.path.isdir(docs):
        files += [
            os.path.join("docs", f) for f in os.listdir(docs)
            if f.endswith(".md")
        ]
    return sorted(files)


def links_of(relpath):
    text = open(os.path.join(REPO, relpath), encoding="utf-8").read()
    # Fenced code blocks hold shell/JSON samples, not navigation.
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    return LINK_RE.findall(text)


def is_external(target):
    return target.startswith(("http://", "https://", "mailto:"))


def resolve(relpath, target):
    """Repo-relative path a link points at, or None for externals."""
    if is_external(target):
        return None
    target = target.split("#", 1)[0]
    if not target:  # Pure fragment: same file.
        return relpath
    base = os.path.dirname(os.path.join(REPO, relpath))
    return os.path.relpath(os.path.normpath(os.path.join(base, target)), REPO)


def stale_bench_names():
    """(file, name) for each bench_<Name> that names no bench target."""
    cmake = open(os.path.join(REPO, "bench", "CMakeLists.txt")).read()
    targets = re.search(r"BEC_BENCH_BINARIES(.*?)\)", cmake, re.S)[1].split()
    stale = set()
    for root, dirs, files in os.walk(REPO):
        dirs[:] = [d for d in dirs
                   if d != ".git" and not d.startswith(("build", ".bench"))]
        for f in files:
            rel = os.path.relpath(os.path.join(root, f), REPO)
            if f.endswith(".md") and rel != "CHANGES.md":
                text = open(os.path.join(root, f), encoding="utf-8").read()
                stale |= {(rel, n) for n in BENCH_RE.findall(text)
                          if n not in targets}
    return sorted(stale)


def main():
    failures = []

    # Gate 1: every relative link resolves.
    resolved = {}  # file -> [repo-relative link targets]
    for f in md_files():
        resolved[f] = []
        for target in links_of(f):
            dest = resolve(f, target)
            if dest is None:
                continue
            if not os.path.exists(os.path.join(REPO, dest)):
                failures.append(f"{f}: broken link -> {target}")
            else:
                resolved[f].append(dest)

    # Gate 2: docs/*.md all reachable from README.md.
    reachable = set()
    frontier = ["README.md"]
    while frontier:
        cur = frontier.pop()
        if cur in reachable:
            continue
        reachable.add(cur)
        for dest in resolved.get(cur, []):
            if dest.endswith(".md") and dest not in reachable:
                frontier.append(dest)
    for f in md_files():
        if f.startswith("docs") and f not in reachable:
            failures.append(
                f"{f}: not reachable from README.md via markdown links")

    # Gate 3: bench_<Name> citations name live bench targets.
    for f, name in stale_bench_names():
        failures.append(f"{f}: bench_{name} is no bench/CMakeLists.txt target")

    for f in failures:
        print(f"check_docs: {f}", file=sys.stderr)
    checked = sum(len(v) for v in resolved.values())
    print(f"check_docs: {len(resolved)} files, {checked} relative links, "
          f"{len(failures)} problem(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
