"""Whole-program indexing: functions, classes, imports, call resolution.

The program index is deliberately *name-based*: Python's dynamism makes
a sound points-to analysis impossible without types, so a call
``obj.refresh(...)`` resolves to every function named ``refresh``
anywhere in the analyzed tree, and their summaries are joined.  That is
conservative in the direction a security lint wants — a taint flow is
reported if *any* candidate would leak — and cheap enough to run on
every lint invocation.

Each module also records where its imported names come from, which is
what RP204 uses to tell a tracked call (defined in-tree or in modeled
stdlib) from an untracked third-party boundary.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.flow.registry import is_tracked_module, module_root


@dataclass
class FunctionInfo:
    """One function or method definition, ready for transfer analysis."""

    name: str
    qualname: str  # "module_path::Class.method" for diagnostics
    path: str  # reported path of the defining module
    package_path: str  # package-relative path ("" outside the package)
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    lines: list[str]
    params: list[str] = field(default_factory=list)
    is_method: bool = False  # first parameter is self/cls
    class_name: str | None = None
    # The nodes of *this* scope in source order (see ``_own_nodes``).
    own_nodes: list[ast.AST] = field(default_factory=list)

    @property
    def top_dir(self) -> str:
        if "/" in self.package_path:
            return self.package_path.split("/", 1)[0]
        return ""


@dataclass
class ClassInfo:
    name: str
    path: str
    node: ast.ClassDef


@dataclass
class ModuleImports:
    """name-as-bound-in-module -> module it came from."""

    origins: dict[str, str] = field(default_factory=dict)

    def origin_of(self, name: str) -> str | None:
        return self.origins.get(name)

    def is_untracked(self, name: str) -> bool:
        origin = self.origins.get(name)
        return origin is not None and not is_tracked_module(origin)


def collect_imports(tree: ast.Module) -> ModuleImports:
    imports = ModuleImports()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or module_root(alias.name)
                imports.origins[bound] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import: in-tree by construction
                continue
            for alias in node.names:
                imports.origins[alias.asname or alias.name] = node.module or ""
    return imports


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    names = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


def _param_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = node.args
    return [a.arg for a in [*args.posonlyargs, *args.args]]


def _own_nodes(root: ast.AST, out: list[ast.AST]) -> list[ast.AST]:
    """Append the nodes belonging to *this* function (or module top
    level) to ``out``: pre-order, never descending into nested def
    bodies — those are indexed as their own functions.  Decorator
    expressions of a skipped def still belong to the enclosing scope
    (they execute there), and so do class bodies, though not their
    methods."""
    for child in ast.iter_child_nodes(root):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in child.decorator_list:
                out.append(dec)
                _own_nodes(dec, out)
        elif isinstance(child, ast.ClassDef):
            _own_nodes(child, out)
        else:
            out.append(child)
            _own_nodes(child, out)
    return out


class ProgramIndex:
    """Functions and classes of the analyzed tree, indexed by name.

    ``modules`` is a list of ``(path, package_path, tree, lines)``.
    Module top-level code is indexed as a parameterless pseudo-function
    named ``<module>`` after the module's own functions, so scripts
    under ``examples/`` and ``benchmarks/`` are analyzed too.
    """

    def __init__(self, modules: list[tuple[str, str, ast.Module, list[str]]]) -> None:
        self.functions: dict[str, list[FunctionInfo]] = {}
        self.classes: dict[str, list[ClassInfo]] = {}
        self.imports: dict[str, ModuleImports] = {}  # keyed by module path
        self.all_functions: list[FunctionInfo] = []
        self.module_functions: list[FunctionInfo] = []
        for path, package_path, tree, lines in modules:
            self.imports[path] = collect_imports(tree)
            self._walk(path, package_path, tree, lines, class_name=None)
            pseudo = FunctionInfo(
                name="<module>",
                qualname=f"{package_path or path}::<module>",
                path=path,
                package_path=package_path,
                node=tree,
                lines=lines,
                own_nodes=_own_nodes(tree, []),
            )
            self.all_functions.append(pseudo)
            self.module_functions.append(pseudo)

    def _walk(
        self,
        path: str,
        package_path: str,
        node: ast.AST,
        lines: list[str],
        class_name: str | None,
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = _param_names(child)
                is_method = (
                    class_name is not None
                    and "staticmethod" not in _decorator_names(child)
                    and bool(params)
                )
                qual = f"{class_name}.{child.name}" if class_name else child.name
                info = FunctionInfo(
                    name=child.name,
                    qualname=f"{package_path or path}::{qual}",
                    path=path,
                    package_path=package_path,
                    node=child,
                    lines=lines,
                    params=params,
                    is_method=is_method,
                    class_name=class_name,
                    own_nodes=_own_nodes(child, []),
                )
                self.functions.setdefault(child.name, []).append(info)
                self.all_functions.append(info)
                # Nested defs are analyzed too (closures are opaque to
                # them, which under-taints at worst one level).
                self._walk(path, package_path, child, lines, class_name=None)
            elif isinstance(child, ast.ClassDef):
                self.classes.setdefault(child.name, []).append(
                    ClassInfo(child.name, path, child)
                )
                self._walk(path, package_path, child, lines, class_name=child.name)
            else:
                self._walk(path, package_path, child, lines, class_name=class_name)

    # -- resolution ---------------------------------------------------------

    def resolve_function(self, name: str) -> list[FunctionInfo]:
        return self.functions.get(name, [])

    def imports_of(self, path: str) -> ModuleImports:
        return self.imports.get(path) or ModuleImports()
