"""DET002 — kernel/view backend parity.

The plant's epoch step has a single implementation — the array-native
:class:`repro.kernel.epoch.EpochKernel` — and the serial chip is a thin
``n_runs=1`` view over it.  The OD-RL controller likewise has a single
implementation — the stacked learner
:class:`repro.kernel.policies.BatchODRL` — and the serial
:class:`~repro.core.controller.ODRLController` is a one-row view over
it.  What remains checkable structurally has two halves:

* **view thinness** (:class:`ViewPair`) — a view method may mutate
  nothing but its backend handle and must not draw RNG: any epoch state
  the view keeps of its own is state the stacked backend cannot see;
* **learner parity** (:class:`ParityPair`) — the per-agent reference
  learner :class:`repro.core.agent.QLearningPopulation` (centralized-rl
  still runs it) and the stacked learner's act/update must touch the
  *same* state and draw from their RNG streams the *same* number of
  times per epoch.

This analyzer diffs each configured pair structurally:

* **state parity** — the set of ``self`` attributes a method mutates
  (assignments, augmented assignments, subscript stores — including
  stores through local aliases of ``self`` attributes — plus in-place
  mutator calls like ``self.thermal.step(...)``), collected
  *transitively* through ``self.method(...)`` calls so a refactor that
  moves a store into a helper does not hide it;
* **draw parity** — the multiset of RNG draw methods invoked directly in
  the method body (``random``/``integers``/``normal``/...), so an extra
  exploration draw on one side — which silently desynchronizes every
  subsequent sample — is caught at review time instead of by a failing
  golden trace.

Pairs are configured with an attribute-name mapping (serial name ->
batch name) and per-side ignore sets for state one backend keeps inline
while the other delegates to sub-objects it owns.
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, Optional, Set, Tuple

from tools.analyze.engine import Analyzer
from tools.analyze.project import FunctionInfo, ProjectIndex
from tools.analyze.registry import register
from tools.lint.engine import Violation

__all__ = [
    "BackendParity",
    "ParityPair",
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
class ParityPair:
    """One serial method and its batched counterpart."""

    serial: str
    batch: str
    #: serial attribute name -> equivalent batch attribute name
    mapping: Dict[str, str] = field(default_factory=dict)
    #: serial-side attributes with no batch counterpart by design
    ignore_serial: FrozenSet[str] = frozenset()
    #: batch-side attributes with no serial counterpart by design
    ignore_batch: FrozenSet[str] = frozenset()


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
#: implementations agree.  The same holds for the OD-RL controller, a
#: one-row view of the stacked learner it keeps as ``stack``.
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
)

#: The shipped learner-parity contract: the reference learner's act and
#: update against the stacked learner's (the schedule clock is one count
#: per run in the stack).
PAIRS: Tuple[ParityPair, ...] = (
    ParityPair(
        serial="repro.core.agent.QLearningPopulation.act",
        batch="repro.kernel.policies.BatchODRL._act",
    ),
    ParityPair(
        serial="repro.core.agent.QLearningPopulation.update",
        batch="repro.kernel.policies.BatchODRL._update",
        mapping={"step_count": "step_counts"},
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

    Non-transitive on purpose: both sides of a pair place their draws at
    the same structural depth, and following calls would double-count
    helpers shared between backends.
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
        "backend, and the reference and stacked learners must mutate "
        "equivalent state and draw from RNG streams identically per step"
    )

    pairs: Tuple[ParityPair, ...] = PAIRS
    view_pairs: Tuple[ViewPair, ...] = VIEW_PAIRS

    def check(self, index: ProjectIndex) -> Iterator[Violation]:
        for view_pair in self.view_pairs:
            yield from self._check_view(index, view_pair)
        for pair in self.pairs:
            serial_fn = index.function(pair.serial)
            batch_fn = index.function(pair.batch)
            if serial_fn is None or batch_fn is None:
                # One side absent from the analyzed tree (e.g. linting a
                # sub-package): nothing to diff.
                continue
            yield from self._check_state(index, pair, batch_fn)
            yield from self._check_draws(index, pair, batch_fn)

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

    def _check_state(
        self, index: ProjectIndex, pair: ParityPair, batch_fn: FunctionInfo
    ) -> Iterator[Violation]:
        serial_raw = extract_mutations(index, pair.serial)
        batch_raw = extract_mutations(index, pair.batch)
        if serial_raw is None or batch_raw is None:
            return
        serial = {
            pair.mapping.get(a, a)
            for a in serial_raw
            if a not in pair.ignore_serial
        }
        batch = batch_raw - pair.ignore_batch
        missing = serial - batch
        extra = batch - serial
        if missing:
            yield self.violation(
                batch_fn.module,
                batch_fn.node,
                f"`{pair.batch}` does not mutate {_fmt(missing)} while its "
                f"serial counterpart `{pair.serial}` does — the backends "
                "will diverge on any code path reading that state",
            )
        if extra:
            yield self.violation(
                batch_fn.module,
                batch_fn.node,
                f"`{pair.batch}` mutates {_fmt(extra)} with no serial "
                f"counterpart in `{pair.serial}` — either mirror the state "
                "serially or declare it in the pair's ignore set",
            )

    def _check_draws(
        self, index: ProjectIndex, pair: ParityPair, batch_fn: FunctionInfo
    ) -> Iterator[Violation]:
        serial = extract_draws(index, pair.serial)
        batch = extract_draws(index, pair.batch)
        if serial is None or batch is None or serial == batch:
            return
        yield self.violation(
            batch_fn.module,
            batch_fn.node,
            f"RNG draw mismatch: `{pair.serial}` draws "
            f"{_fmt_counter(serial)} per step but `{pair.batch}` draws "
            f"{_fmt_counter(batch)} — unequal consumption desynchronizes "
            "every subsequent sample in the stream",
        )
