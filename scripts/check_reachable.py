#!/usr/bin/env python3
"""Fail when a src/ header or a final class is reached by nothing but itself.

Two rules, both scanning src/, bench/, examples/ and perfbench/ (tests do
not count: code that only its own tests reach is code nothing runs, and
should be wired into a data path or deleted with its tests):

* Header rule. A header ``src/<dir>/<name>.hpp`` counts as reached when
  some scanned file other than the header itself and its own ``<name>.cpp``
  ``#include``s it as ``"<dir>/<name>.hpp"``.
* Class rule. Every ``class X final : public ...`` declared in a src/
  header must be constructed in some scanned file other than that header
  and its own ``.cpp``. A construction is ``make_unique<X>`` or
  ``make_shared<X>`` (``X`` optionally namespace-qualified), ``X(`` or
  ``X{``, outside a ``//`` comment. A ``dynamic_cast`` is not a
  construction, so a header that stays included for one class no longer
  hides a sibling class nothing builds.

Exit status is non-zero, with the unreached headers and classes listed, if
any exist — wired into the CI docs job next to check_docs_links.py.

Usage:
  python3 scripts/check_reachable.py
"""

import glob
import os
import re
import sys

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
FINAL_CLASS_RE = re.compile(r"^\s*class\s+(\w+)\s+final\s*:\s*public\b", re.MULTILINE)
LINE_COMMENT_RE = re.compile(r"//.*")
SCAN_DIRS = ("src", "bench", "examples", "perfbench")
SOURCE_EXTS = (".hpp", ".cpp")


def own_files(header):
    """The header and its same-stem .cpp: the module that declares it."""
    return {os.path.normpath(header), os.path.normpath(header[:-len(".hpp")] + ".cpp")}


def unreached_headers(headers, sources):
    includers = {}  # "dir/name.hpp" -> files that include it
    for path, text in sources.items():
        for target in INCLUDE_RE.findall(text):
            includers.setdefault(target, set()).add(path)
    unreached = []
    for header in headers:
        key = os.path.relpath(header, "src").replace(os.sep, "/")
        if not includers.get(key, set()) - own_files(header):
            unreached.append(f"{header}: included by nothing outside its own module")
    return unreached


def unconstructed_classes(headers, sources):
    code = {path: LINE_COMMENT_RE.sub("", text) for path, text in sources.items()}
    unreached = []
    for header in headers:
        own = own_files(header)
        for name in FINAL_CLASS_RE.findall(sources[os.path.normpath(header)]):
            built = re.compile(rf"\bmake_(?:unique|shared)<(?:\w+::)*{name}>|\b{name}\s*[({{]")
            if not any(built.search(text) for path, text in code.items() if path not in own):
                unreached.append(
                    f"{header}: class {name} is constructed nowhere outside its own module")
    return unreached


def main():
    headers = sorted(glob.glob("src/**/*.hpp", recursive=True))
    if not headers:
        print("error: no headers under src/ (run from the repo root)", file=sys.stderr)
        return 2
    sources = {}  # normalized path -> file text
    for top in SCAN_DIRS:
        for path in glob.glob(f"{top}/**/*", recursive=True):
            if path.endswith(SOURCE_EXTS):
                with open(path, encoding="utf-8") as f:
                    sources[os.path.normpath(path)] = f.read()
    unreached = unreached_headers(headers, sources) + unconstructed_classes(headers, sources)
    if unreached:
        print("\n".join(unreached), file=sys.stderr)
        print(f"\n{len(unreached)} unreached header(s)/class(es)", file=sys.stderr)
        return 1
    print(f"all {len(headers)} src/ headers and their final classes are reached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
