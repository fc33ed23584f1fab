"""DET002 — serial views stay thin over their stacked backends.

The plant's epoch step has a single implementation — the array-native
:class:`repro.kernel.epoch.EpochKernel` — and the serial chip is a thin
``n_runs=1`` view over it.  The OD-RL controller likewise is a one-row
view of the stacked decide :class:`repro.kernel.policies.BatchODRL`,
whose tabular learner is the one :class:`repro.core.agent.QLearningPopulation`,
and the PI power cap a one-row view of :class:`repro.kernel.policies.BatchPID`.
What remains checkable structurally is **view thinness**
(:class:`ViewPair`): a view method may mutate nothing but its backend
handle and must not draw RNG, because any epoch state the view keeps of
its own is state the stacked backend cannot see.

* **mutations** — the set of ``self`` attributes a view mutates
  (assignments, augmented assignments, subscript stores — including
  stores through local aliases and reshaped views of ``self``
  attributes — plus in-place mutator calls like
  ``self.thermal.step(...)``), collected *transitively* through
  ``self.method(...)`` calls so a refactor that moves a store into a
  helper does not hide it;
* **draws** — the multiset of RNG draw methods invoked directly in the
  view body (``random``/``integers``/``normal``/...).
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Set, Tuple

from tools.analyze.engine import Analyzer
from tools.analyze.project import FunctionInfo, ProjectIndex
from tools.analyze.registry import register
from tools.lint.engine import Violation

__all__ = [
    "BackendParity",
    "ViewPair",
    "extract_mutations",
    "extract_draws",
]

#: Method names treated as in-place mutation of their receiver when
#: called on a direct ``self.<attr>`` receiver.
MUTATOR_METHODS = frozenset(
    {
        "step",
        "reset",
        "update",
        "append",
        "extend",
        "add",
        "insert",
        "pop",
        "clear",
        "fill",
        "remove",
    }
)


@dataclass(frozen=True)
class ViewPair:
    """A thin view method and the backend method it delegates to.

    The view's whole job is forwarding to its backend handle: the only
    ``self`` attribute it may (appear to) mutate is the handle itself,
    and it must consume no RNG.  Checked only when both sides are
    present in the analyzed tree.
    """

    view: str
    kernel: str
    #: the single attribute holding the backend (the one allowed mutation)
    handle: str = "_kernel"


#: Serial views over their stacked backends.  The chip↔batch chip pair of
#: the pre-kernel era is gone: both backends now *are* the kernel, so the
#: check is that the serial view stays thin, not that two plant
#: implementations agree.  The same holds for the OD-RL and PI controllers,
#: each a one-row view of the stacked decide it keeps as ``stack``.
VIEW_PAIRS: Tuple[ViewPair, ...] = (
    ViewPair(
        view="repro.manycore.chip.ManyCoreChip.step",
        kernel="repro.kernel.epoch.EpochKernel.step",
    ),
    ViewPair(
        view="repro.manycore.chip.ManyCoreChip.reset",
        kernel="repro.kernel.epoch.EpochKernel.reset",
    ),
    ViewPair(
        view="repro.core.controller.ODRLController.decide",
        kernel="repro.kernel.policies.BatchODRL.step",
        handle="stack",
    ),
    ViewPair(
        view="repro.core.controller.ODRLController.reset",
        kernel="repro.kernel.policies.BatchODRL.reset",
        handle="stack",
    ),
    ViewPair(
        view="repro.baselines.pid.PIDCappingController.decide",
        kernel="repro.kernel.policies.BatchPID.step",
        handle="stack",
    ),
    ViewPair(
        view="repro.baselines.pid.PIDCappingController.reset",
        kernel="repro.kernel.policies.BatchPID.reset",
        handle="stack",
    ),
)

def _self_attr(node: ast.expr) -> Optional[str]:
    """``self.<attr>`` -> attr name, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


#: ndarray methods whose result can be a view of the receiver, so a store
#: through ``self.q.reshape(-1)[i]`` (or an alias of it) writes ``q``.
VIEW_METHODS = frozenset({"reshape", "ravel", "view"})


def _peel_subscripts(node: ast.expr) -> ast.expr:
    """``self.visits[r][idx]`` -> ``self.visits``; ``q[idx]`` -> ``q``;
    ``self.q.reshape(-1)[idx]`` -> ``self.q``."""
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in VIEW_METHODS
        ):
            node = node.func.value
        else:
            return node


def _collect_aliases(fn_node: ast.AST) -> Dict[str, str]:
    """Local names bound to ``self.<attr>`` views (``q = self.q[r]``)."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            attr = _self_attr(_peel_subscripts(node.value))
            if attr is not None:
                aliases[target.id] = attr
    return aliases


def _mutated_attr(
    target: ast.expr, aliases: Dict[str, str]
) -> Optional[str]:
    """Attribute of ``self`` a store-target mutates, through aliases."""
    base = _peel_subscripts(target)
    attr = _self_attr(base)
    if attr is not None:
        return attr
    # A bare name store only mutates ``self`` state when the target is a
    # *subscripted* alias view (``q[idx] += ...``); rebinding the local
    # name itself (``q = ...``) does not touch the attribute.
    if isinstance(target, ast.Subscript) and isinstance(base, ast.Name):
        return aliases.get(base.id)
    return None


def _direct_mutations(fn: FunctionInfo) -> Set[str]:
    """Self-attributes this body mutates directly (no call-following)."""
    aliases = _collect_aliases(fn.node)
    out: Set[str] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                targets = (
                    target.elts if isinstance(target, ast.Tuple) else [target]
                )
                for t in targets:
                    attr = _mutated_attr(t, aliases)
                    if attr is not None:
                        out.add(attr)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if isinstance(node, ast.AnnAssign) and node.value is None:
                continue
            attr = _mutated_attr(node.target, aliases)
            if attr is not None:
                out.add(attr)
        elif isinstance(node, ast.Call):
            # ``self.thermal.step(...)`` mutates ``thermal`` in place.
            # Deliberately restricted to *direct* self-attr receivers:
            # ``profiler = self.profiler; profiler.add(...)`` stays
            # invisible, because read-only helpers (profilers, loggers)
            # are commonly aliased and would drown the diff in noise.
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATOR_METHODS
            ):
                attr = _self_attr(func.value)
                if attr is not None:
                    out.add(attr)
    return out


def extract_mutations(index: ProjectIndex, qualname: str) -> Optional[Set[str]]:
    """Self-attributes mutated by ``qualname``, transitively through
    ``self.method(...)`` helpers defined on the same class."""
    root = index.function(qualname)
    if root is None:
        return None
    out: Set[str] = set()
    seen: Set[str] = set()
    stack = [root]
    while stack:
        fn = stack.pop()
        if fn.qualname in seen:
            continue
        seen.add(fn.qualname)
        out |= _direct_mutations(fn)
        owner = index.class_of(fn)
        if owner is None:
            continue
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and func.attr in owner.methods
                ):
                    stack.append(owner.methods[func.attr])
    return out


def _is_rngish(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return "rng" in node.id
    if isinstance(node, ast.Attribute):
        return "rng" in node.attr
    return False


def extract_draws(index: ProjectIndex, qualname: str) -> Optional[Counter]:
    """Multiset of RNG draw methods called *directly* in the body.

    Non-transitive on purpose: a view's calls into its backend, which
    does draw, are not the view's own draws.
    """
    fn = index.function(qualname)
    if fn is None:
        return None
    draws: Counter = Counter()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            # ``self._rng.random(...)`` / ``rng.integers(...)``
            if isinstance(receiver, ast.Attribute):
                if _is_rngish(receiver):
                    draws[node.func.attr] += 1
            elif _is_rngish(receiver):
                draws[node.func.attr] += 1
    return draws


def _fmt(names: Set[str]) -> str:
    return "{" + ", ".join(sorted(names)) + "}"


def _fmt_counter(counter: Counter) -> str:
    return "{" + ", ".join(f"{k}: {v}" for k, v in sorted(counter.items())) + "}"


@register
class BackendParity(Analyzer):
    analyzer_id = "DET002"
    summary = (
        "serial views must delegate all epoch state to their stacked "
        "backend and draw no RNG of their own"
    )

    view_pairs: Tuple[ViewPair, ...] = VIEW_PAIRS

    def check(self, index: ProjectIndex) -> Iterator[Violation]:
        for view_pair in self.view_pairs:
            yield from self._check_view(index, view_pair)

    def _check_view(
        self, index: ProjectIndex, pair: ViewPair
    ) -> Iterator[Violation]:
        view_fn = index.function(pair.view)
        kernel_fn = index.function(pair.kernel)
        if view_fn is None or kernel_fn is None:
            # One side absent from the analyzed tree (e.g. linting a
            # sub-package): nothing to check.
            return
        mutations = extract_mutations(index, pair.view)
        if mutations is not None:
            own = mutations - {pair.handle}
            if own:
                yield self.violation(
                    view_fn.module,
                    view_fn.node,
                    f"`{pair.view}` mutates {_fmt(own)} beyond its kernel "
                    f"handle `{pair.handle}` — a view owns no epoch state; "
                    f"anything not delegated to `{pair.kernel}` is invisible "
                    "to the batched backend and desynchronizes it",
                )
        draws = extract_draws(index, pair.view)
        if draws:
            yield self.violation(
                view_fn.module,
                view_fn.node,
                f"`{pair.view}` draws from an RNG ({_fmt_counter(draws)}) — "
                f"all stochastic state belongs in `{pair.kernel}`, where "
                "every backend consumes the same stream",
            )
