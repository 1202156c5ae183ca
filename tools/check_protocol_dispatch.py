#!/usr/bin/env python
"""Lint: no algorithm-string dispatch outside the protocol registry.

The whole point of ``repro.protocols`` is that infrastructure consumes
:class:`~repro.protocols.ProtocolSpec` capabilities instead of comparing
algorithm names.  This lint walks every module under ``src/repro``
(except ``repro/protocols/`` itself, where the names are *defined*) and
rejects comparisons against registered protocol names::

    if algorithm == "bcsr": ...          # rejected
    if self.algorithm in ("rb", "mpr"):  # rejected
    if spec.single_writer: ...           # what to write instead

Flagged forms: ``==`` / ``!=`` / ``in`` / ``not in`` where one side is a
protocol-name string literal (or a tuple/list/set of them) and the other
side is an expression mentioning ``algorithm`` (a bare name, attribute,
or subscript such as ``profile.algorithm`` / ``row["algorithm"]``).
Comparisons of unrelated strings that happen to equal a protocol name
never trip it, and iteration over algorithm lists
(``for algorithm in names()``) is not a comparison at all.

Exit status is the number of violations (0 == clean).
"""

import ast
import os
import sys

#: Kept literal (not imported from the registry) so the lint still runs
#: when the package under test is too broken to import; the conformance
#: suite asserts this set matches the registry.
PROTOCOL_NAMES = frozenset({
    "bsr", "bsr-history", "bsr-2round", "bcsr", "rb", "abd", "mpr", "rb2",
})

SKIP_DIRS = {"protocols", "__pycache__"}


def _literal_names(node):
    """Protocol names in a string literal or a container of them."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value} & PROTOCOL_NAMES
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        found = set()
        for element in node.elts:
            found |= _literal_names(element)
        return found
    return set()


def _mentions_algorithm(node):
    """Whether an expression plausibly holds an algorithm name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "algorithm" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "algorithm" in sub.attr.lower():
            return True
        if (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                and "algorithm" in sub.value.lower()):
            return True  # row["algorithm"], labels.get("algorithm")
    return False


def dispatch_comparisons(path):
    """Yield (line, detail) for every algorithm-string comparison."""
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        ops = node.ops
        for op, left, right in zip(ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)):
                continue
            for literal, other in ((left, right), (right, left)):
                names = _literal_names(literal)
                if names and _mentions_algorithm(other):
                    yield node.lineno, ", ".join(sorted(names))
                    break


def main(*roots):
    roots = roots or ("src/repro",)
    violations = []
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                for line, names in dispatch_comparisons(path):
                    violations.append(f"{path}:{line}: compares against "
                                      f"protocol name(s) {names}; consume "
                                      f"a ProtocolSpec capability instead")
    for violation in violations:
        print(violation, file=sys.stderr)
    if not violations:
        print("protocol-dispatch lint: clean", file=sys.stderr)
    return len(violations)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
