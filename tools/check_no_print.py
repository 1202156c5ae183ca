#!/usr/bin/env python
"""Lint: no bare ``print(...)`` inside the library or the benchmarks.

Library code reports through the metric registry and the ``logging``
module; only the CLI front-ends (``cli.py``, ``metrics/report.py``) may
write to stdout directly.  Benchmark scripts report through
:func:`repro.metrics.report.emit` so their output stays greppable and
redirectable as one stream.  A ``print`` that routes to an explicit
stream (``print(..., file=stream)``) is allowed anywhere.

Exit status is the number of violations (0 == clean).
"""

import ast
import os
import sys

ALLOWED_FILES = frozenset({"cli.py", "report.py"})


def bare_prints(path):
    """Yield (line, column) of every print() call without a file= kwarg."""
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Name) and func.id == "print"):
            continue
        if any(keyword.arg == "file" for keyword in node.keywords):
            continue
        yield node.lineno, node.col_offset


def main(*roots):
    roots = roots or ("src/repro", "benchmarks")
    violations = []
    for root in roots:
        for dirpath, _, filenames in os.walk(root):
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                if filename in ALLOWED_FILES:
                    continue
                path = os.path.join(dirpath, filename)
                for line, column in bare_prints(path):
                    violations.append(
                        f"{path}:{line}:{column}: bare print() "
                        f"-- use logging or the metric registry")
    for violation in violations:
        print(violation, file=sys.stderr)
    if not violations:
        print("no bare print() calls under " + ", ".join(roots),
              file=sys.stderr)
    return len(violations)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
