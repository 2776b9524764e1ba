"""Contract rules for the incremental-scoring and parallel runtimes.

R003 — a :class:`ReputationModel` subclass that maintains a versioned
cache (any ``self.version`` / ``self.*_version`` counter assigned in
``__init__``) must keep it coherent: its ``record()`` override has to
bump the counter, call a helper method that bumps it, or delegate to
``super().record()``.  A silent miss leaves warm stationary vectors
stale — exactly the failure mode the batch-scoring hypothesis suite
catches only after the fact.

R004 — a subclass that overrides ``score_many()`` must be registered
in ``default_registry`` (``core/registry.py``), because the
batch-parity gate (``tests/test_models/test_batch_scoring.py``)
parametrizes over registry names.  An unregistered kernel is an
unverified kernel.

R005 — world builders passed to ``register_world_builder`` must be
module-level functions.  Lambdas, closures, and local defs don't
pickle, so a spec naming them silently falls back to serial execution
(or fails outright under the spawn start method).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Finding, ModuleInfo, Project, Rule

__all__ = [
    "CacheVersionBumpRule",
    "BatchParityRegistryRule",
    "PicklableWorldBuilderRule",
]

_ROOT_MODEL = "ReputationModel"


def _is_version_attr(name: str) -> bool:
    return name == "version" or name.endswith("_version")


def _self_attr_target(node: ast.AST) -> Optional[str]:
    """Attribute name for ``self.X`` assignment targets."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _touched_version_attrs(fn: ast.FunctionDef) -> Set[str]:
    """Version-counter attributes assigned/augmented anywhere in *fn*."""
    touched: Set[str] = set()
    for node in ast.walk(fn):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            attr = _self_attr_target(target)
            if attr is not None and _is_version_attr(attr):
                touched.add(attr)
    return touched


def _calls_super_record(fn: ast.FunctionDef) -> bool:
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "record"
            and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Name)
            and node.func.value.func.id == "super"
        ):
            return True
    return False


def _self_method_calls(fn: ast.FunctionDef) -> Set[str]:
    calls: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            attr = _self_attr_target(node.func)
            if attr is not None:
                calls.add(attr)
    return calls


class _ModelIndex:
    """Project-wide view of the model class hierarchy under ``models/``."""

    def __init__(self, project: Project) -> None:
        #: class name -> (module, ClassDef)
        self.classes: Dict[str, Tuple[ModuleInfo, ast.ClassDef]] = {}
        #: class name -> base-class names
        self.bases: Dict[str, List[str]] = {}
        for module in project.modules_under("models/"):
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    names = []
                    for base in node.bases:
                        if isinstance(base, ast.Name):
                            names.append(base.id)
                        elif isinstance(base, ast.Attribute):
                            names.append(base.attr)
                    self.classes[node.name] = (module, node)
                    self.bases[node.name] = names
        self.model_classes = self._transitive_subclasses(_ROOT_MODEL)

    def _transitive_subclasses(self, root: str) -> Set[str]:
        found = {root}
        changed = True
        while changed:
            changed = False
            for name, bases in self.bases.items():
                if name not in found and any(b in found for b in bases):
                    found.add(name)
                    changed = True
        found.discard(root)
        return found

    def ancestry(self, name: str) -> List[str]:
        """*name* plus its project-local ancestors, nearest first."""
        order: List[str] = []
        queue = [name]
        while queue:
            current = queue.pop(0)
            if current in order or current not in self.classes:
                continue
            order.append(current)
            queue.extend(self.bases.get(current, []))
        return order

    def method(
        self, class_name: str, method_name: str
    ) -> Optional[ast.FunctionDef]:
        entry = self.classes.get(class_name)
        if entry is None:
            return None
        for item in entry[1].body:
            if (
                isinstance(item, ast.FunctionDef)
                and item.name == method_name
            ):
                return item
        return None


class CacheVersionBumpRule(Rule):
    rule_id = "R003"
    title = "record() overrides must keep the cache version coherent"
    scopes = ("models/",)

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        index = _ModelIndex(project)
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name not in index.model_classes:
                continue
            record = index.method(node.name, "record")
            if record is None:
                continue  # inherited record keeps the ancestor's contract
            version_attrs = self._version_attrs(node.name, index)
            if not version_attrs:
                continue  # no versioned cache, nothing to keep coherent
            if self._record_is_coherent(node.name, record, index):
                continue
            attrs = ", ".join(sorted(version_attrs))
            yield module.finding(
                record,
                self.rule_id,
                f"{node.name}.record() never bumps its cache version "
                f"({attrs}) and does not call super().record(); "
                "incremental caches will serve stale scores",
            )

    @staticmethod
    def _version_attrs(name: str, index: _ModelIndex) -> Set[str]:
        attrs: Set[str] = set()
        for ancestor in index.ancestry(name):
            init = index.method(ancestor, "__init__")
            if init is not None:
                attrs |= _touched_version_attrs(init)
        return attrs

    @staticmethod
    def _record_is_coherent(
        name: str, record: ast.FunctionDef, index: _ModelIndex
    ) -> bool:
        if _touched_version_attrs(record):
            return True
        if _calls_super_record(record):
            return True
        # One level of indirection: record() -> self.helper() where the
        # helper bumps the counter (PageRank.record -> add_edge).
        called = _self_method_calls(record)
        for ancestor in index.ancestry(name):
            for method_name in called:
                helper = index.method(ancestor, method_name)
                if helper is not None and _touched_version_attrs(helper):
                    return True
        return False


class BatchParityRegistryRule(Rule):
    rule_id = "R004"
    title = "score_many() overrides must be in the batch-parity registry"
    scopes = ("models/",)

    _REGISTRY_PATH = "core/registry.py"
    _REGISTRY_FN = "default_registry"

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        registered = self._registered_names(project)
        if registered is None:
            return  # no registry module in the scanned tree
        index = _ModelIndex(project)
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name == _ROOT_MODEL:
                continue  # the base default, not an override
            if node.name not in index.model_classes:
                continue
            override = index.method(node.name, "score_many")
            if override is None:
                continue
            if node.name in registered:
                continue
            yield module.finding(
                node,
                self.rule_id,
                f"{node.name} overrides score_many() but is not "
                f"registered in {self._REGISTRY_FN}; the batch == scalar "
                "hypothesis gate will never exercise its kernel",
            )

    def _registered_names(
        self, project: Project
    ) -> Optional[Set[str]]:
        registry = project.module(self._REGISTRY_PATH)
        if registry is None:
            return None
        for node in ast.walk(registry.tree):
            if (
                isinstance(node, ast.FunctionDef)
                and node.name == self._REGISTRY_FN
            ):
                return {
                    n.id
                    for n in ast.walk(node)
                    if isinstance(n, ast.Name)
                }
        return None


class PicklableWorldBuilderRule(Rule):
    rule_id = "R005"
    title = "registered world builders must be module-level functions"

    #: names of the one world-builder registry's entry point: the
    #: parallel runtime's, and the alias the sharded runner exports.
    _TARGETS = ("register_world_builder", "register_shard_world_builder")

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        module_level = self._module_level_names(module.tree)
        nested_defs = self._nested_def_names(module.tree)
        for call, inside_fn in self._target_calls(module.tree):
            builder = self._builder_arg(call)
            if builder is None:
                continue
            if isinstance(builder, ast.Lambda):
                yield module.finding(
                    builder,
                    self.rule_id,
                    "world builders must be module-level functions; a "
                    "lambda does not pickle, so specs naming it "
                    "cannot cross the process boundary",
                )
                continue
            if isinstance(builder, ast.Name):
                if (
                    builder.id in nested_defs
                    and builder.id not in module_level
                ):
                    yield module.finding(
                        builder,
                        self.rule_id,
                        f"world builder {builder.id!r} is a local/closure "
                        "def; move it to module level so it pickles",
                    )
                    continue
            if inside_fn:
                yield module.finding(
                    call,
                    self.rule_id,
                    f"{self._call_name(call)}() called inside a function; "
                    "register at module import time so every pool worker "
                    "sees the same builder table",
                )

    def _target_calls(
        self, tree: ast.Module
    ) -> List[Tuple[ast.Call, bool]]:
        calls: List[Tuple[ast.Call, bool]] = []

        def visit(node: ast.AST, inside_fn: bool) -> None:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                inside_fn = True
            if isinstance(node, ast.Call):
                if self._call_name(node) in self._TARGETS:
                    calls.append((node, inside_fn))
            for child in ast.iter_child_nodes(node):
                visit(child, inside_fn)

        visit(tree, False)
        return calls

    @staticmethod
    def _call_name(call: ast.Call) -> str:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return ""

    @staticmethod
    def _builder_arg(call: ast.Call) -> Optional[ast.AST]:
        for kw in call.keywords:
            if kw.arg == "builder":
                return kw.value
        if len(call.args) >= 2:
            return call.args[1]
        return None

    @staticmethod
    def _module_level_names(tree: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for node in tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                names.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for item in node.names:
                    names.add(item.asname or item.name.split(".")[0])
        return names

    @staticmethod
    def _nested_def_names(tree: ast.Module) -> Set[str]:
        nested: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                for inner in ast.walk(node):
                    if inner is not node and isinstance(
                        inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        nested.add(inner.name)
        return nested
