#!/usr/bin/env python
"""Lint: no shims, no unused exports, one I/O style, one server recipe.

Ways dead or duplicate code hides in a package, all cheap to detect:

* a module-level ``__getattr__`` (PEP 562) under ``src/repro/`` -- every
  one this repo ever had was a compatibility view over a name that had
  moved, kept "for callers" that no longer existed;
* a name listed in a package ``__init__.py``'s ``__all__`` that nothing
  references -- not ``src/``, ``tests/``, ``bench/``, ``benchmarks/``,
  ``examples/``, ``tools/`` nor ``docs/``.  The ``__init__.py`` that
  exports the name does not count as a reference to it, and neither
  does the statement that defines it;
* a second I/O style under ``src/repro/runtime/``.  The runtime's I/O
  is two ``asyncio.BufferedProtocol`` classes (``runtime/link.py``
  outbound, the node's inbound connection) that receive *into* the
  frame assembler.  Banned beside them: asyncio *streams*
  (``start_server``, ``open_connection``, ``StreamReader``,
  ``StreamWriter``, a ``.drain()`` call) -- a second implementation of
  the same channel -- and copying receivers (``data_received``, plain
  ``asyncio.Protocol``), whose transport reads with
  ``sock.recv(256 KiB)``: a fresh allocation above the mmap threshold,
  two page faults, per read;
* a second module under ``src/repro/`` calling one of the deployment
  builders (``ServerContext``, ``OpContext``, ``NamespacedOperation``,
  ``RegisterTable``, ``make_behavior``, ``RegisterServerNode``,
  ``AsyncRegisterClient``).  What a server hosts and how a client
  operation is built are decided in one place (``protocols/fleet.py``),
  and nodes and clients are made in one place (``runtime/cluster.py``);
  a second caller is a second recipe, which is how the simulator and the
  runtime builders once drifted apart.  ``QueryTag`` counts as a builder
  too: the one write walk (``core/operation.py``) is the only module
  that asks for tags, so a second write cannot grow back beside it -- six
  near-copies once did, and one of them lost the writer-only start rule.
  So does ``ReplyCollector``: the walks in ``core/operation.py`` own every
  collector, so a read cannot count its replies, or judge its held
  answers, in a copy of its own -- four once counted witnesses four ways;
* a second module under ``src/repro/`` writing a server's list ``L``
  (``….history = …``, ``….history.append(`` or ``del ….history[``).  A
  pair enters ``L`` only through ``RegisterStore.adopt``
  (``core/store.py``), which checks the tag bound and prunes to
  ``max_history``; five servers once kept five copies of that rule, and
  three of them lost both checks.  Two restore paths once assigned a
  snapshot's ``L`` around it, scribbled tags and all.

Exit status is the number of findings (0 == clean).
"""

import ast
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")

RUNTIME = os.path.join(PACKAGE, "runtime")

#: Names that mean a stream-based or copying (``recv`` into a fresh
#: ``bytes``) I/O path grew back under ``runtime/``.
BANNED_IO_NAMES = {"start_server", "open_connection", "StreamReader",
                   "StreamWriter", "drain", "data_received", "Protocol"}

#: Constructors each called from at most one module under ``src/repro/``.
BUILDERS = ("ServerContext", "OpContext", "NamespacedOperation",
            "RegisterTable", "make_behavior", "RegisterServerNode",
            "AsyncRegisterClient", "QueryTag", "QueryDataHeld",
            "ReplyCollector")

#: Where a reference to an exported name may live.
REFERENCE_DIRS = ("src", "tests", "bench", "benchmarks", "examples",
                  "tools", "docs")


def _files(top, suffixes):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in filenames:
            if filename.endswith(suffixes):
                yield os.path.join(dirpath, filename)


def _python_references(tree):
    """Names a module *uses*: loads, attribute accesses, imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.split(".")[-1]


def _exports(tree):
    """The string entries of a module's ``__all__`` assignment."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return [elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)]
    return []


def _shim_lines(tree):
    """Line numbers of module-level ``__getattr__`` definitions."""
    return [node.lineno for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name == "__getattr__"]


def _banned_io_lines(tree):
    """``(line, name)`` of every banned I/O name the module uses or defines."""
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else getattr(node, "name", None))  # def / class
        if name in BANNED_IO_NAMES:
            yield node.lineno, name


def _builder_calls(tree):
    """The :data:`BUILDERS` a module calls."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name in BUILDERS:
                yield name


def builder_findings(trees):
    """One finding per builder called from more than one module.

    ``trees`` maps a module's display path to its parsed AST.
    """
    callers = {}
    for path, tree in trees.items():
        for name in _builder_calls(tree):
            callers.setdefault(name, set()).add(path)
    return [f"{name}( is called from {len(paths)} modules "
            f"({', '.join(sorted(paths))}); build through one recipe"
            for name, paths in sorted(callers.items()) if len(paths) > 1]


def _is_history(node):
    return isinstance(node, ast.Attribute) and node.attr == "history"


def _writes_history(tree):
    """Whether a module assigns, appends to or deletes from some
    ``….history`` (or one of its items)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "append"
                    and _is_history(node.func.value)):
                return True
        elif isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
            if _is_history(node) or (isinstance(node, ast.Subscript)
                                     and _is_history(node.value)):
                return True
    return False


def history_findings(trees):
    """One finding if more than one module writes ``….history`` in place.

    ``trees`` maps a module's display path to its parsed AST.
    """
    writers = sorted(path for path, tree in trees.items()
                     if _writes_history(tree))
    if len(writers) <= 1:
        return []
    return [f".history is assigned, appended to or deleted from in "
            f"{len(writers)} modules ({', '.join(writers)}); a pair enters "
            "L only through RegisterStore.adopt"]


def main():
    findings = []
    #: src/repro module -> AST, for the one-recipe rule.
    package_trees = {}
    #: name -> files referencing it (python uses, or words in a doc).
    references = {}
    exports = []
    for top in REFERENCE_DIRS:
        for path in _files(os.path.join(ROOT, top), (".py", ".md")):
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
            if path.endswith(".md"):
                names = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", source))
            else:
                tree = ast.parse(source, filename=path)
                names = set(_python_references(tree))
                if path.startswith(PACKAGE + os.sep):
                    package_trees[os.path.relpath(path, ROOT)] = tree
                    findings.extend(
                        f"{os.path.relpath(path, ROOT)}:{line}: module-level "
                        "__getattr__ shim; migrate the callers and delete it"
                        for line in _shim_lines(tree))
                    if os.path.basename(path) == "__init__.py":
                        exports.append((path, _exports(tree)))
                if path.startswith(RUNTIME + os.sep):
                    findings.extend(
                        f"{os.path.relpath(path, ROOT)}:{line}: {name!r}; "
                        "runtime I/O goes through the BufferedProtocol "
                        "classes (no streams, no copying data_received)"
                        for line, name in _banned_io_lines(tree))
            for name in names:
                references.setdefault(name, set()).add(path)
    findings.extend(builder_findings(package_trees))
    findings.extend(history_findings(package_trees))
    for path, names in exports:
        for name in names:
            if name.startswith("__"):
                continue  # __version__ and friends are metadata
            if not references.get(name, set()) - {path}:
                findings.append(
                    f"{os.path.relpath(path, ROOT)}: __all__ exports "
                    f"{name!r} but nothing references it")
    for finding in findings:
        print(f"dead-code: {finding}")
    if not findings:
        print("dead-code: no shims, no unreferenced exports, no streams "
              "or copying receivers under runtime/, one module per builder, "
              "one write walk and one read walk, one store admits pairs")
    return len(findings)


if __name__ == "__main__":
    sys.exit(main())
