"""DET003 — spawn-safety of work shipped to worker processes.

``repro.parallel`` runs cells in a ``ProcessPoolExecutor`` with the
*spawn* start method, so everything crossing the process boundary must
pickle: lambdas and closures raise ``PicklingError`` at submit time — or
worse, appear to work under a fork-based dev setup and then fail only on
the spawn-based CI runner.  Four sites are checked:

* direct ``pool.submit(fn, ...)`` calls — ``fn`` must not be a lambda or
  a function defined inside another function, and neither may any of the
  *arguments* shipped with it (the resilient engine submits a
  ``ChaosPolicy`` alongside every task, so payload args cross the
  boundary too);
* ``CellTask(...)`` construction — the ``factory`` argument (positional
  index 3 or keyword) must be module-level picklable; a
  ``functools.partial`` is unwrapped and its target checked the same
  way;
* controller lineup builders — any function annotated as returning
  ``ControllerFactory`` mappings must not stuff lambdas or nested
  defs into the returned dict, since those factories are later embedded
  in ``CellTask``s;
* ``RetryPolicy(classifier=...)`` construction — custom classifiers ride
  inside policies that campaign code routinely embeds in task payloads,
  so they must be module-level picklable like any factory.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from tools.analyze.engine import Analyzer
from tools.analyze.project import FunctionInfo, ModuleInfo, ProjectIndex
from tools.analyze.registry import register
from tools.lint.engine import Violation, in_src_repro

__all__ = ["SpawnSafety"]

_FACTORY_ANNOTATIONS = (
    "ControllerFactory",
    "Callable[[SystemConfig], Controller]",
)


def _nested_defs(fn_node: ast.AST) -> Set[str]:
    """Names of functions defined *inside* this function's body."""
    out: Set[str] = set()
    for node in ast.walk(fn_node):
        if node is fn_node:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.add(node.name)
    return out


def _is_partial(mod: ModuleInfo, call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return mod.imports.get(func.id) == "functools.partial"
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return (
            mod.imports.get(func.value.id) == "functools"
            and func.attr == "partial"
        )
    return False


@register
class SpawnSafety(Analyzer):
    analyzer_id = "DET003"
    summary = (
        "callables crossing the spawn process boundary (pool.submit, "
        "CellTask factories, controller lineups) must be module-level "
        "picklable — no lambdas or closures"
    )

    def check(self, index: ProjectIndex) -> Iterator[Violation]:
        for mod in index.modules.values():
            if not in_src_repro(mod.path):
                continue
            for fn in list(mod.functions.values()) + [
                m for c in mod.classes.values() for m in c.methods.values()
            ]:
                nested = _nested_defs(fn.node)
                fn_params = self._param_names(fn.node)
                yield from self._check_submit_sites(mod, fn, nested, fn_params)
                yield from self._check_celltask_sites(mod, fn, nested, fn_params)
                yield from self._check_lineup_builders(mod, fn, nested)
                yield from self._check_retry_policy_sites(mod, fn, nested, fn_params)

    @staticmethod
    def _param_names(fn_node: ast.AST) -> Set[str]:
        args = fn_node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return set(names)

    # -- shared classification -------------------------------------------
    def _unpicklable_reason(
        self,
        mod: ModuleInfo,
        fn: FunctionInfo,
        value: ast.expr,
        nested: Set[str],
        params: Set[str],
    ) -> Optional[str]:
        """Why ``value`` cannot cross a spawn boundary, or None if fine.

        Parameter names are a trust boundary — the callable came from the
        caller and is checked at *its* construction site instead.
        """
        if isinstance(value, ast.Lambda):
            return "a lambda (unpicklable under the spawn start method)"
        if isinstance(value, ast.Name):
            if value.id in params:
                return None
            if value.id in nested:
                return (
                    f"the nested function `{value.id}` (closures are "
                    "unpicklable under the spawn start method)"
                )
            return None
        if isinstance(value, ast.Call) and _is_partial(mod, value):
            if value.args:
                return self._unpicklable_reason(
                    mod, fn, value.args[0], nested, params
                )
        return None

    # -- pool.submit -----------------------------------------------------
    def _check_submit_sites(
        self,
        mod: ModuleInfo,
        fn: FunctionInfo,
        nested: Set[str],
        params: Set[str],
    ) -> Iterator[Violation]:
        for node in ast.walk(fn.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "submit"
                and node.args
            ):
                continue
            reason = self._unpicklable_reason(
                mod, fn, node.args[0], nested, params
            )
            if reason is not None:
                yield self.violation(
                    mod,
                    node,
                    f"`submit()` receives {reason}; move the work function "
                    "to module level",
                )
            for arg in node.args[1:]:
                reason = self._unpicklable_reason(mod, fn, arg, nested, params)
                if reason is not None:
                    yield self.violation(
                        mod,
                        node,
                        f"`submit()` payload argument is {reason}; every "
                        "argument is pickled into the spawn worker along "
                        "with the work function",
                    )

    # -- CellTask factories ----------------------------------------------
    def _check_celltask_sites(
        self,
        mod: ModuleInfo,
        fn: FunctionInfo,
        nested: Set[str],
        params: Set[str],
    ) -> Iterator[Violation]:
        for node in ast.walk(fn.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id.endswith("CellTask")
            ):
                continue
            factory: Optional[ast.expr] = None
            for kw in node.keywords:
                if kw.arg == "factory":
                    factory = kw.value
            if factory is None and len(node.args) > 3:
                factory = node.args[3]
            if factory is None:
                continue
            reason = self._unpicklable_reason(mod, fn, factory, nested, params)
            if reason is not None:
                yield self.violation(
                    mod,
                    node,
                    f"CellTask factory is {reason}; factories are pickled "
                    "into worker processes — build them from module-level "
                    "functions (optionally via functools.partial)",
                )

    # -- RetryPolicy classifiers -----------------------------------------
    def _check_retry_policy_sites(
        self,
        mod: ModuleInfo,
        fn: FunctionInfo,
        nested: Set[str],
        params: Set[str],
    ) -> Iterator[Violation]:
        for node in ast.walk(fn.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id.endswith("RetryPolicy")
            ):
                continue
            for kw in node.keywords:
                if kw.arg != "classifier":
                    continue
                reason = self._unpicklable_reason(
                    mod, fn, kw.value, nested, params
                )
                if reason is not None:
                    yield self.violation(
                        mod,
                        node,
                        f"RetryPolicy classifier is {reason}; policies are "
                        "embedded in campaign payloads that cross the spawn "
                        "boundary — use a module-level classifier",
                    )

    # -- controller lineup builders --------------------------------------
    def _returns_factories(self, fn: FunctionInfo) -> bool:
        returns = fn.node.returns
        if returns is None:
            return False
        try:
            annotation = ast.unparse(returns)
        except Exception:
            return False
        return any(marker in annotation for marker in _FACTORY_ANNOTATIONS)

    def _check_lineup_builders(
        self, mod: ModuleInfo, fn: FunctionInfo, nested: Set[str]
    ) -> Iterator[Violation]:
        if not self._returns_factories(fn):
            return
        params = self._param_names(fn.node)
        returned_names: Set[str] = set()
        values: List[ast.expr] = []
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Return) and node.value is not None:
                if isinstance(node.value, ast.Name):
                    returned_names.add(node.value.id)
                elif isinstance(node.value, ast.Dict):
                    values.extend(v for v in node.value.values if v is not None)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and isinstance(
                        node.value, ast.Dict
                    ):
                        if target.id in returned_names:
                            values.extend(
                                v for v in node.value.values if v is not None
                            )
                    elif (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in returned_names
                    ):
                        values.append(node.value)
        for value in values:
            reason = self._unpicklable_reason(mod, fn, value, nested, params)
            if reason is not None:
                yield self.violation(
                    mod,
                    value,
                    f"controller lineup entry is {reason}; lineup factories "
                    "are embedded in CellTasks and pickled into spawn "
                    "workers — use a module-level builder (optionally via "
                    "functools.partial)",
                )
