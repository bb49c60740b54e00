#!/usr/bin/env python3
"""Fail when a src/ header is reached by nothing but itself.

A header ``src/<dir>/<name>.hpp`` counts as reached when some file under
src/, bench/, examples/ or perfbench/ other than the header itself and its
own ``<name>.cpp`` ``#include``s it as ``"<dir>/<name>.hpp"``. Tests do not
count: a module that only its own tests include is code nothing runs, and
should be wired into a data path or deleted with its tests.

Exit status is non-zero, with the unreached headers listed, if any exist —
wired into the CI docs job next to check_docs_links.py.

Usage:
  python3 scripts/check_reachable.py
"""

import glob
import os
import re
import sys

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
SCAN_DIRS = ("src", "bench", "examples", "perfbench")
SOURCE_EXTS = (".hpp", ".cpp")


def main():
    headers = sorted(glob.glob("src/**/*.hpp", recursive=True))
    if not headers:
        print("error: no headers under src/ (run from the repo root)", file=sys.stderr)
        return 2
    includers = {}  # "dir/name.hpp" -> files that include it
    for top in SCAN_DIRS:
        for path in glob.glob(f"{top}/**/*", recursive=True):
            if not path.endswith(SOURCE_EXTS):
                continue
            with open(path, encoding="utf-8") as f:
                for target in INCLUDE_RE.findall(f.read()):
                    includers.setdefault(target, set()).add(os.path.normpath(path))
    unreached = []
    for header in headers:
        own = {os.path.normpath(header), os.path.normpath(header[:-len(".hpp")] + ".cpp")}
        key = os.path.relpath(header, "src").replace(os.sep, "/")
        if not includers.get(key, set()) - own:
            unreached.append(header)
    if unreached:
        print("\n".join(f"{h}: included by nothing outside its own module" for h in unreached),
              file=sys.stderr)
        print(f"\n{len(unreached)} unreached header(s) of {len(headers)}", file=sys.stderr)
        return 1
    print(f"all {len(headers)} src/ headers are reached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
