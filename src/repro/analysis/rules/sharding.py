"""Sharded-execution rules.

R008 — cross-shard delta application must iterate in canonical spec
order.  The sharded runner's whole invariant (``1 shard == N shards``,
byte for byte) rests on merging per-shard deltas in a deterministic
order: shard-index lists, spec-ordered sequences, lexsorted key
columns.  Feeding a merge primitive (``merge_from``, ``extend_coded``,
``merge_snapshots``, ``apply_delta``, ``merge_delta``) from a
``set``/``frozenset`` — whose iteration order is hash-salted and
process-dependent — silently breaks the invariant only on some
machines, which is the worst way to break it.  The rule flags merge
calls inside loops or comprehensions over set-ish iterables, and
set-ish expressions passed to a merge primitive directly.  The fix is
always the same: keep deltas in a list (or ``sorted(...)`` the
collection) before merging.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Finding, ModuleInfo, Project, Rule
from repro.analysis.rules.determinism import (
    _AttrTypes,
    _ScopeInference,
)

__all__ = ["ShardDeltaOrderRule"]


class ShardDeltaOrderRule(Rule):
    rule_id = "R008"
    title = "cross-shard delta merges must iterate in canonical order"
    scopes = (
        "experiments/sharded.py",
        "experiments/parallel.py",
        "store/",
        "obs/",
        "sim/network.py",
    )

    #: merge primitives whose call order becomes interner/counter order
    _MERGE_METHODS = frozenset(
        {
            "merge_from",
            "extend_coded",
            "merge_snapshots",
            "apply_delta",
            "merge_delta",
        }
    )

    _LOOP_MESSAGE = (
        "delta merge inside a loop over a set has hash-salted, "
        "process-dependent order; merge shard deltas from a list in "
        "spec order (or sorted(...))"
    )
    _ARG_MESSAGE = (
        "a set passed to a merge primitive is consumed in hash-salted "
        "order; pass a spec-ordered list (or sorted(...))"
    )

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        empty_attrs: Dict[str, str] = {}
        module_sets = _ScopeInference(
            self._toplevel_stmts(module.tree.body), empty_attrs
        ).set_names
        yield from self._check_scope(
            module, self._toplevel_stmts(module.tree.body), empty_attrs,
            None,
        )
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                attrs = _AttrTypes(node).kinds
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        yield from self._check_scope(
                            module, item.body, attrs, item.args,
                            seed=module_sets,
                        )
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and not self._is_method(node, module.tree):
                yield from self._check_scope(
                    module, node.body, empty_attrs, node.args,
                    seed=module_sets,
                )

    @staticmethod
    def _is_method(fn: ast.AST, tree: ast.Module) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and fn in node.body:
                return True
        return False

    @staticmethod
    def _toplevel_stmts(body: List[ast.stmt]) -> List[ast.stmt]:
        return [
            s
            for s in body
            if not isinstance(
                s,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            )
        ]

    def _check_scope(
        self,
        module: ModuleInfo,
        body: List[ast.stmt],
        attr_types: Dict[str, str],
        params: Optional[ast.arguments],
        seed: Optional[Set[str]] = None,
    ) -> Iterator[Finding]:
        scope = _ScopeInference(body, attr_types, params, seed)
        seen: Set[Tuple[int, int]] = set()
        for stmt in body:
            for node in ast.walk(stmt):
                for site, message in self._sites(node, scope):
                    key = (
                        getattr(site, "lineno", 0),
                        getattr(site, "col_offset", 0),
                    )
                    if key in seen:
                        continue
                    seen.add(key)
                    yield module.finding(site, self.rule_id, message)

    def _sites(
        self, node: ast.AST, scope: _ScopeInference
    ) -> List[Tuple[ast.AST, str]]:
        sites: List[Tuple[ast.AST, str]] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if scope.is_set(node.iter) and self._has_merge_call(node.body):
                sites.append((node.iter, self._LOOP_MESSAGE))
        elif isinstance(
            node,
            (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
        ):
            if self._has_merge_call([node]):
                for gen in node.generators:
                    if scope.is_set(gen.iter):
                        sites.append((gen.iter, self._LOOP_MESSAGE))
        elif isinstance(node, ast.Call):
            if self._merge_name(node) is not None:
                for arg in node.args:
                    if scope.is_set(arg):
                        sites.append((arg, self._ARG_MESSAGE))
        return sites

    def _merge_name(self, call: ast.Call) -> Optional[str]:
        func = call.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else ""
        )
        return name if name in self._MERGE_METHODS else None

    def _has_merge_call(self, body: List[ast.AST]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and self._merge_name(node):
                    return True
        return False
