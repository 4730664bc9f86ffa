#!/usr/bin/env python3
"""Fail when a `ctest -R` filter in the CI workflow selects no test.

Every alternative of every `-R '...'` filter in the workflow must match
at least one registered test (counted with `ctest -N -R`), so deleting or
renaming a suite cannot silently shrink what a sanitizer job runs.

    python3 tools/check_test_filters.py --workflow .github/workflows/ci.yml --build-dir build
"""

import argparse
import re
import subprocess
import sys


def filter_alternatives(workflow_text):
    """Each `|`-separated alternative of each `-R '...'` filter, in order."""
    return [alt for regex in re.findall(r"-R\s+'([^']+)'", workflow_text)
            for alt in regex.split("|")]


def selected_count(build_dir, regex):
    out = subprocess.run(["ctest", "--test-dir", build_dir, "-N", "-R", regex],
                         capture_output=True, text=True, check=True).stdout
    match = re.search(r"Total Tests: (\d+)", out)
    return int(match.group(1)) if match else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workflow", required=True)
    ap.add_argument("--build-dir", required=True)
    args = ap.parse_args()
    with open(args.workflow) as f:
        alternatives = filter_alternatives(f.read())
    if not alternatives:
        print(f"no `ctest -R '...'` filter found in {args.workflow}")
        return 1
    empty = [alt for alt in alternatives if selected_count(args.build_dir, alt) == 0]
    for alt in empty:
        print(f"ctest filter alternative '{alt}' selects no registered test")
    print(f"checked {len(alternatives)} filter alternatives, {len(empty)} select nothing")
    return 1 if empty else 0


if __name__ == "__main__":
    sys.exit(main())
