"""DET004 — purity of everything reachable from the cache-key functions.

``repro.parallel.cache`` content-addresses results: ``cell_key`` /
``stable_hash`` must be pure functions of their inputs, or a cache hit
returns a result computed for a *different* experiment.  This analyzer
takes the transitive call closure of the keying roots
(``stable_hash``, ``cell_key``, ``workload_token``,
``controller_fingerprint`` and the internal ``_update`` dispatcher) and
flags every source of nondeterminism reachable from them:

* wall-clock reads (``time.time``/``perf_counter``, ``datetime.now`` and
  friends);
* process- or session-scoped identity (``id()``, builtin ``hash()``
  under ``PYTHONHASHSEED``, ``os.getpid``, ``uuid.*``);
* entropy and environment (``os.urandom``, ``random.*``,
  ``os.getenv`` / ``os.environ`` reads);
* unordered iteration folded into the digest — ``.items()`` /
  ``.keys()`` / ``.values()`` not wrapped in ``sorted(...)`` within the
  same expression.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from tools.analyze.engine import Analyzer
from tools.analyze.project import FunctionInfo, ModuleInfo, ProjectIndex
from tools.analyze.registry import register
from tools.lint.engine import Violation

__all__ = ["CachePurity"]

#: Functions whose closure defines the cache-key trusted computing base.
ROOT_NAMES = (
    "stable_hash",
    "cell_key",
    "workload_token",
    "controller_fingerprint",
    "_update",
)

_DATETIME_NOW = frozenset({"now", "utcnow", "today"})
_OS_IMPURE = frozenset({"urandom", "getenv", "getpid"})
_DICT_VIEWS = frozenset({"items", "keys", "values"})


def _find_cache_module(index: ProjectIndex) -> Optional[ModuleInfo]:
    for mod in index.modules.values():
        if "stable_hash" in mod.functions:
            return mod
    return None


@register
class CachePurity(Analyzer):
    analyzer_id = "DET004"
    summary = (
        "nothing reachable from stable_hash/cell_key may read wall-clock, "
        "entropy, process identity, the environment, or unsorted dict order"
    )

    def check(self, index: ProjectIndex) -> Iterator[Violation]:
        cache_mod = _find_cache_module(index)
        if cache_mod is None:
            return
        roots = [
            cache_mod.functions[name].qualname
            for name in ROOT_NAMES
            if name in cache_mod.functions
        ]
        for qualname in sorted(index.reachable(roots)):
            fn = index.function(qualname)
            if fn is not None:
                yield from self._check_function(index, fn)

    def _check_function(
        self, index: ProjectIndex, fn: FunctionInfo
    ) -> Iterator[Violation]:
        mod = fn.module
        parents = _parent_map(fn.node)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                message = self._impure_call(index, fn, node)
                if message is None:
                    message = self._unsorted_view(node, parents)
                if message is not None:
                    yield self.violation(
                        mod,
                        node,
                        f"{message} inside `{fn.qualname}`, which is "
                        "reachable from the cache-key roots — cache keys "
                        "must be pure functions of their inputs",
                    )
            elif isinstance(node, ast.Attribute) and node.attr == "environ":
                if (
                    isinstance(node.value, ast.Name)
                    and mod.imports.get(node.value.id) == "os"
                ):
                    yield self.violation(
                        mod,
                        node,
                        "`os.environ` read inside "
                        f"`{fn.qualname}`, which is reachable from the "
                        "cache-key roots — environment state must not leak "
                        "into cache keys",
                    )

    def _impure_call(
        self, index: ProjectIndex, fn: FunctionInfo, call: ast.Call
    ) -> Optional[str]:
        mod = fn.module
        func = call.func
        # wall-clock via the per-module time alias tables
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id in mod.lint.time_aliases:
                return f"wall-clock call `{ast.unparse(func)}(...)`"
        if isinstance(func, ast.Name) and func.id in mod.lint.wall_clock_names:
            return f"wall-clock call `{func.id}(...)`"
        if isinstance(func, ast.Name):
            if func.id in ("id", "hash") and func.id not in mod.functions:
                return (
                    f"`{func.id}()` call (process/run-scoped identity, "
                    "unstable across interpreter sessions)"
                )
            target = mod.imports.get(func.id, "")
        else:
            target = index.resolve_call(fn, call) or ""
        if target.startswith("datetime.") and target.split(".")[-1] in _DATETIME_NOW:
            return f"wall-clock call `{target}(...)`"
        if target.startswith("os.") and target.split(".")[-1] in _OS_IMPURE:
            return f"`{target}()` call"
        if target.startswith("uuid."):
            return f"`{target}()` call (session-scoped identity)"
        if target.startswith("random.") or target == "random":
            return f"global-RNG call `{target}(...)`"
        return None

    @staticmethod
    def _unsorted_view(
        call: ast.Call, parents: Dict[ast.AST, ast.AST]
    ) -> Optional[str]:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr in _DICT_VIEWS):
            return None
        node: Optional[ast.AST] = call
        while node is not None:
            if (
                isinstance(node, ast.Call)
                and node is not call
                and isinstance(node.func, ast.Name)
                and node.func.id in ("sorted", "len")
            ):
                return None
            node = parents.get(node)
        return (
            f"unsorted `.{func.attr}()` iteration (dict order is "
            "insertion-dependent; wrap in `sorted(...)`)"
        )


def _parent_map(root: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(root):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents
