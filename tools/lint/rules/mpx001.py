"""MPX001 — multiprocessing hygiene.

Two failure classes the shared-memory trainer is exposed to:

1. **Unpicklable worker targets.**  Under the ``spawn`` start method a
   ``Process(target=...)`` must pickle its target; a lambda or a function
   defined inside another function fails at launch time wherever the
   trainer cannot fork and spawns instead, even though ``fork`` on the
   Linux CI box lets it slide.  Targets must be module-level callables.

2. **Leaked shared memory.**  Every ``SharedMemory(create=True)`` segment
   must eventually be both ``close()``-d and ``unlink()``-ed — a module
   that creates segments but never unlinks leaves ``/dev/shm`` garbage
   that outlives the process (the resource_tracker only warns).  The check
   is per-module: creation without any ``unlink()``/``close()`` call in
   the same file is flagged.

Suppress with ``# repro: allow[mp] <why>``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.astutil import dotted, keyword_arg
from tools.lint.core import ModuleSource, Rule, Violation

__all__ = ["MultiprocessingHygieneRule"]


class MultiprocessingHygieneRule(Rule):
    code = "MPX001"
    name = "multiprocessing-hygiene"
    description = (
        "Process targets must be module-level (picklable under spawn); "
        "SharedMemory(create=True) needs close()/unlink() in the same module"
    )
    tags = ("mp",)

    def check_module(self, module: ModuleSource) -> Iterator[Violation]:
        module_level = self._module_level_names(module.tree)
        nested = self._nested_function_names(module.tree)

        shm_creates: list[ast.Call] = []
        has_unlink = False
        has_close = False

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted(node.func)
            tail = callee.rsplit(".", 1)[-1]

            if tail == "Process":
                target = keyword_arg(node, "target")
                if isinstance(target, ast.Lambda):
                    yield self.violation(
                        module,
                        node,
                        "Process target is a lambda: unpicklable under the "
                        "spawn start method; use a module-level function",
                    )
                elif (
                    isinstance(target, ast.Name)
                    and target.id in nested
                    and target.id not in module_level
                ):
                    yield self.violation(
                        module,
                        node,
                        f"Process target '{target.id}' is defined inside "
                        "another function: unpicklable under spawn; move it "
                        "to module level",
                    )

            if tail == "SharedMemory":
                create = keyword_arg(node, "create")
                if isinstance(create, ast.Constant) and create.value is True:
                    shm_creates.append(node)
            if tail == "unlink":
                has_unlink = True
            if tail == "close":
                has_close = True

        for create_call in shm_creates:
            if not has_close:
                yield self.violation(
                    module,
                    create_call,
                    "SharedMemory(create=True) but this module never calls "
                    "close(); the mapping leaks until process exit",
                )
            if not has_unlink:
                yield self.violation(
                    module,
                    create_call,
                    "SharedMemory(create=True) but this module never calls "
                    "unlink(); the segment outlives the process in /dev/shm",
                )

    @staticmethod
    def _module_level_names(tree: ast.Module) -> set[str]:  # type: ignore[type-arg]
        names: set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    names.add(alias.asname or alias.name.split(".")[0])
        return names

    @staticmethod
    def _nested_function_names(tree: ast.AST) -> set[str]:
        nested: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.walk(node):
                    if (
                        child is not node
                        and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    ):
                        nested.add(child.name)
        return nested
