#!/usr/bin/env python
"""AST-based self-lint: the repository's own layering and style rules.

Run from the repository root (CI does; so does the pytest wrapper in
``tests/tools/test_lint_repo.py``)::

    python tools/lint_repo.py

Rules enforced:

* **no-storage-from-apps** — application proxies (``src/repro/apps``)
  and the I/O libraries they use must never import
  ``repro.pfs.storage`` (or any ``repro.pfs`` internals): apps observe
  a PFS only through replay, exactly like real applications observe a
  real file system.  Importing the storage model from an app would let
  a proxy "cheat" by reading ground truth the analysis is supposed to
  reconstruct.
* **no-bare-except** — ``except:`` without an exception class swallows
  ``KeyboardInterrupt``/``SystemExit`` and hides analysis bugs; name
  the exception (the codebase's own error lattice lives in
  ``repro.errors``).
* **future-annotations** — every ``src/repro`` module that defines a
  function or class must start with ``from __future__ import
  annotations`` so annotations stay strings (cheap, and consistent
  with the rest of the package).  Pure re-export modules (e.g.
  ``__init__.py`` without defs) are exempt.
* **no-mutable-default-args** — a list/dict/set default (display or
  bare ``list()``/``dict()``/``set()`` call) is evaluated once and
  shared across every call; ``src/repro`` functions must default to
  ``None`` and build the container inside the body.
* **export-drift** — every name a ``src/repro`` module lists in
  ``__all__`` must resolve to a top-level binding of that module
  (def, class, assignment, or import); a stale entry breaks ``from
  module import name`` and lies to readers about the public surface.
* **no-per-op-loops** — the hot analysis layers (``src/repro/core``,
  ``src/repro/tracer``) must not iterate column arrays
  (``.records``, ``.rid``, ``.offset``, …) one operation at a time —
  that is exactly the per-record scaling wall the columnar trace core
  removed; vectorize with numpy instead.  Deliberate object-path code
  (rendering and serialization) carries a
  ``# lint: allow-per-op-loop (reason)`` annotation on or above the
  loop line.  Loops over ``.tolist()`` copies are not matched: that
  explicit conversion is how the remaining row-at-a-time code (the
  sequential offset replay, the masked metadata scans, the encoder)
  is written, and it is reviewed rather than linted.

Exit status: 0 clean, 1 violations found, 2 bad invocation.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: directories scanned for bare-except (style applies repo-wide)
STYLE_DIRS = ("src", "tools", "tests", "benchmarks")
#: modules that must not see PFS internals
APP_LAYER = REPO / "src" / "repro" / "apps"
#: the forbidden import prefix for the app layer
FORBIDDEN_PREFIX = "repro.pfs"
#: modules that must carry the future import (when they define things)
FUTURE_ROOT = REPO / "src" / "repro"


@dataclass(frozen=True)
class Violation:
    rule: str
    path: Path
    line: int
    message: str

    def render(self) -> str:
        rel = self.path.relative_to(REPO)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def python_files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*.py") if p.is_file())


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    """Every module name an ``import``/``from`` statement touches."""
    out: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.level == 0:  # absolute imports only; no relatives used
                out.append((node.module, node.lineno))
    return out


def check_no_storage_from_apps(tree: ast.Module,
                               path: Path) -> list[Violation]:
    violations = []
    for name, line in imported_names(tree):
        if name == FORBIDDEN_PREFIX or name.startswith(
                FORBIDDEN_PREFIX + "."):
            violations.append(Violation(
                "no-storage-from-apps", path, line,
                f"application layer imports {name!r}; apps may only "
                f"observe a PFS through replay"))
    return violations


def check_no_bare_except(tree: ast.Module, path: Path) -> list[Violation]:
    violations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            violations.append(Violation(
                "no-bare-except", path, node.lineno,
                "bare 'except:' swallows SystemExit/KeyboardInterrupt; "
                "name the exception class"))
    return violations


def _has_defs(tree: ast.Module) -> bool:
    return any(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
               for node in ast.walk(tree))


def _has_future_annotations(tree: ast.Module) -> bool:
    return any(
        isinstance(node, ast.ImportFrom)
        and node.module == "__future__"
        and any(alias.name == "annotations" for alias in node.names)
        for node in tree.body)


def check_future_annotations(tree: ast.Module,
                             path: Path) -> list[Violation]:
    if not _has_defs(tree) or _has_future_annotations(tree):
        return []
    return [Violation(
        "future-annotations", path, 1,
        "module defines functions/classes but lacks "
        "'from __future__ import annotations'")]


#: constructor calls that build a fresh mutable container
_MUTABLE_CALLS = ("dict", "list", "set")


def check_no_mutable_default_args(tree: ast.Module,
                                  path: Path) -> list[Violation]:
    violations = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults)
        defaults += [d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in _MUTABLE_CALLS
                    and not default.args and not default.keywords):
                violations.append(Violation(
                    "no-mutable-default-args", path, default.lineno,
                    f"function {node.name!r} has a mutable default "
                    f"argument (evaluated once, shared across calls); "
                    f"default to None and build it in the body"))
    return violations


def _statement_bindings(body) -> set[str]:
    """Names bound by a statement list (recursing into if/try/with)."""
    names: set[str] = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                elts = (target.elts
                        if isinstance(target, (ast.Tuple, ast.List))
                        else [target])
                names.update(e.id for e in elts
                             if isinstance(e, ast.Name))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) \
                and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name
                         for alias in node.names)
        elif isinstance(node, ast.If):
            names |= _statement_bindings(node.body)
            names |= _statement_bindings(node.orelse)
        elif isinstance(node, ast.Try):
            for sub in (node.body, node.orelse, node.finalbody,
                        *[h.body for h in node.handlers]):
                names |= _statement_bindings(sub)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            names |= _statement_bindings(node.body)
    return names


def check_export_drift(tree: ast.Module, path: Path) -> list[Violation]:
    """Every ``__all__`` entry must resolve to a module attribute."""
    bindings = _statement_bindings(tree.body)
    if "*" in bindings:
        return []  # star import: the surface is not statically known
    violations = []
    for node in tree.body:
        if not (isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "__all__"
                and isinstance(node.value, (ast.List, ast.Tuple))):
            continue
        for elt in node.value.elts:
            if not (isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)):
                continue
            if elt.value not in bindings:
                violations.append(Violation(
                    "export-drift", path, elt.lineno,
                    f"__all__ exports {elt.value!r} but the module "
                    f"binds no such name"))
    return violations


#: AccessTable/ColumnarTrace column attributes: iterating one of these
#: per-op in the hot layers defeats the columnar core
COLUMN_ATTRS = frozenset({
    "rid", "rank", "offset", "stop", "is_write", "tstart", "tend",
    "fd", "count", "path_id", "func_id", "flags", "records",
})
#: builtins that wrap an iterable without changing what is iterated
_LOOP_WRAPPERS = frozenset({"zip", "enumerate", "reversed", "sorted"})
#: annotation that exempts one loop (reason required by convention)
PER_OP_ALLOW = "lint: allow-per-op-loop"
#: directories where per-op loops over columns are forbidden
PER_OP_DIRS = ("core", "tracer")


def _column_iter_attr(node: ast.expr) -> str | None:
    """The column attribute ``node`` iterates, if any.

    Matches a bare attribute (``for r in table.records``) and the same
    behind iteration-preserving builtins (``zip``/``enumerate``/…).
    Method calls like ``.tolist()`` are not matched: copying a column
    into Python objects is the explicit conversion API, not a hot loop.
    """
    if isinstance(node, ast.Attribute) and node.attr in COLUMN_ATTRS:
        return node.attr
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in _LOOP_WRAPPERS:
        for arg in node.args:
            attr = _column_iter_attr(arg)
            if attr is not None:
                return attr
    return None


def check_no_per_op_loops(tree: ast.Module, path: Path,
                          source: str) -> list[Violation]:
    lines = source.splitlines()

    def allowed(lineno: int) -> bool:
        return any(PER_OP_ALLOW in lines[ln - 1]
                   for ln in (lineno - 1, lineno)
                   if 1 <= ln <= len(lines))

    violations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters = [gen.iter for gen in node.generators]
        else:
            continue
        for it in iters:
            attr = _column_iter_attr(it)
            if attr is not None and not allowed(node.lineno):
                violations.append(Violation(
                    "no-per-op-loops", path, node.lineno,
                    f"per-op Python loop over column attribute "
                    f"'.{attr}'; vectorize with numpy, or annotate "
                    f"'# {PER_OP_ALLOW} (reason)' if the object path "
                    f"is deliberate"))
    return violations


def lint_repo(repo: Path = REPO) -> list[Violation]:
    violations: list[Violation] = []
    for directory in STYLE_DIRS:
        for path in python_files(repo / directory):
            tree = parse(path)
            violations.extend(check_no_bare_except(tree, path))
    for path in python_files(repo / "src" / "repro" / "apps"):
        violations.extend(check_no_storage_from_apps(parse(path), path))
    for path in python_files(repo / "src" / "repro"):
        tree = parse(path)
        violations.extend(check_future_annotations(tree, path))
        violations.extend(check_no_mutable_default_args(tree, path))
        violations.extend(check_export_drift(tree, path))
    for directory in PER_OP_DIRS:
        for path in python_files(repo / "src" / "repro" / directory):
            source = path.read_text()
            violations.extend(check_no_per_op_loops(
                ast.parse(source, filename=str(path)), path, source))
    return sorted(violations,
                  key=lambda v: (str(v.path), v.line, v.rule))


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv:
        print(f"usage: python tools/lint_repo.py (no arguments; "
              f"got {argv!r})", file=sys.stderr)
        return 2
    violations = lint_repo()
    for v in violations:
        print(v.render())
    if violations:
        print(f"{len(violations)} violation(s).", file=sys.stderr)
        return 1
    print("repo lint: clean.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
