"""In-memory span tracer that wraps the public API of the ``repro`` layers.

The benchmark records spans from its own files only: :class:`Tracer`
replaces every public function and method of the layer modules with a
timing wrapper for the length of a traced run, and restores the originals
afterwards.  The program under test is not edited and cannot tell.

Each span is one call: its name, thread, start, end and *self* seconds,
where self seconds are the call's inclusive seconds minus those of the
wrapped calls made beneath it on the same thread.  Spans stay in memory
until :meth:`Tracer.spans_payload` writes them out at the end of the run.

Naming: a span is ``<layer>.<qualname>``, where the layer is the
sub-package of ``repro`` that defines the object (``repro.kernel.epoch``
-> ``kernel``), except that ``repro.kernel.policies`` is its own layer,
``policy``.  Constructors are not wrapped (they run for every small value
object), with the one exception of ``EpochKernel.__init__``, the kernel's
set-up cost.  Coroutine and generator functions are not wrapped either: a
synchronous wrapper would time only their creation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Packages whose public functions and methods are wrapped.
LAYER_PACKAGES = (
    "repro.sim",
    "repro.kernel",
    "repro.batch",
    "repro.core",
    "repro.baselines",
    "repro.faults",
    "repro.parallel",
    "repro.service",
    "repro.workloads",
)

#: Plant math the kernel calls, wrapped so ``kernel.step`` splits into its
#: public children (``manycore`` is not otherwise a traced layer).
EXTRA_FUNCTIONS = (
    ("repro.manycore.core", "instructions_per_second"),
    ("repro.manycore.core", "activity_factor"),
    ("repro.manycore.power", "dynamic_power"),
    ("repro.manycore.power", "leakage_power"),
)

#: Constructors that are wrapped despite the rule above.
WRAPPED_INITS = (("repro.kernel.epoch", "EpochKernel"),)

#: Per-element accessors called inside loops of other public methods.  A
#: wrapper on each would cost more than the work it times, so they stay in
#: their caller's self time.
SKIP = frozenset(
    {
        "repro.kernel.epoch.KernelObservation.row",
        "repro.kernel.epoch.KernelObservation.chip_power",
        "repro.kernel.epoch.KernelObservation.chip_instructions",
        "repro.workloads.phases.Workload.sequence_for_core",
        "repro.workloads.phases.CorePhaseSequence.phase_at",
        "repro.faults.campaign.CoreDeathFault.active",
        "repro.faults.campaign.ActuatorFault.active",
        "repro.faults.campaign.TelemetryBlackout.active",
        "repro.parallel.cells.RunCell.label",
    }
)

#: ``observer(args, kwargs, result, start, end)``, called after a span.
Observer = Callable[[Tuple[Any, ...], Dict[str, Any], Any, float, float], None]


def layer_of(module: str) -> str:
    """``repro.kernel.epoch`` -> ``kernel``; ``repro.kernel.policies`` -> ``policy``."""
    if module.startswith("repro.kernel.policies"):
        return "policy"
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def _import_layers() -> None:
    for package_name in LAYER_PACKAGES:
        package = importlib.import_module(package_name)
        for info in pkgutil.walk_packages(package.__path__, package_name + "."):
            importlib.import_module(info.name)
    for module_name, _ in EXTRA_FUNCTIONS:
        importlib.import_module(module_name)


def _plain(func: Any) -> bool:
    return (
        inspect.isfunction(func)
        and not inspect.iscoroutinefunction(func)
        and not inspect.isgeneratorfunction(func)
        and not inspect.isasyncgenfunction(func)
    )


class Tracer:
    """Span recorder plus the install/uninstall of its wrappers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: one tuple per finished span: (name id, thread id, start, end, self)
        self.spans: List[Tuple[int, int, float, float, float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._observers: Dict[str, Observer] = {}
        self.t_install: Optional[float] = None

    # -- recording ---------------------------------------------------------
    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        """``func`` timed as span ``name`` (its observer, if any, sees the call)."""
        name_id = self._name_id(name)
        spans = self.spans
        observer = self._observers.get(name)
        clock = time.perf_counter
        get_ident = threading.get_ident
        stack_of = self._stack

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                spans.append((name_id, get_ident(), frame[0], end, duration - frame[1]))
            if observer is not None:
                observer(args, kwargs, result, frame[0], end)
            return result

        return traced

    def observe(self, name: str, observer: Observer) -> None:
        """Call ``observer`` after each ``name`` span (register before wrapping).

        Used to count work at the same boundary the span times: rows per
        kernel step, cells per service round, cache hits per lookup.
        """
        self._observers[name] = observer

    # -- installation ------------------------------------------------------
    def _targets(self) -> Iterable[Tuple[str, Any, str, Any]]:
        """(span name, owner, attribute, original) for every wrapped object.

        ``owner`` is a module for functions and a class for methods; module
        functions are re-bound everywhere they were imported.
        """
        for module_name, attr in EXTRA_FUNCTIONS:
            module = sys.modules[module_name]
            yield f"manycore.{attr}", module, attr, getattr(module, attr)
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None
            and any(name == p or name.startswith(p + ".") for p in LAYER_PACKAGES)
        ]
        for module in modules:
            mod_name = module.__name__
            layer = layer_of(mod_name)
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod_name:
                    continue
                qual = f"{mod_name}.{attr}"
                if qual in SKIP:
                    continue
                if _plain(obj):
                    yield f"{layer}.{attr}", module, attr, obj
                elif inspect.isclass(obj):
                    for meth, raw in sorted(vars(obj).items()):
                        if meth.startswith("_") and not (
                            meth == "__init__" and (mod_name, attr) in WRAPPED_INITS
                        ):
                            continue
                        if f"{qual}.{meth}" not in SKIP:
                            yield f"{layer}.{attr}.{meth}", obj, meth, raw

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        _import_layers()
        # Every binding of a module-level function across repro modules, so
        # ``from x import f`` call sites see the wrapper too.
        bindings: Dict[int, List[Tuple[Any, str]]] = {}
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj):
                    bindings.setdefault(id(obj), []).append((module, attr))
        done: set = set()
        for span_name, owner, attr, raw in list(self._targets()):
            if inspect.isclass(owner):
                if isinstance(raw, staticmethod) and _plain(raw.__func__):
                    new: Any = staticmethod(self.wrap(span_name, raw.__func__))
                elif isinstance(raw, classmethod) and _plain(raw.__func__):
                    new = classmethod(self.wrap(span_name, raw.__func__))
                elif _plain(raw):
                    new = self.wrap(span_name, raw)
                else:
                    continue  # properties, nested classes, constants
                self._patch(owner, attr, new)
            elif id(raw) not in done:
                done.add(id(raw))
                wrapped = self.wrap(span_name, raw)
                for module, bound in bindings.get(id(raw), [(owner, attr)]):
                    self._patch(module, bound, wrapped)
        self.t_install = time.perf_counter()

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def rebind(self, owner: Any, attr: str, name: str) -> None:
        """Wrap the current ``owner.attr`` once more, as span ``name``."""
        self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        """Restore every original binding, newest first."""
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- reading -----------------------------------------------------------
    def aggregate(
        self, lo: float = float("-inf"), hi: float = float("inf")
    ) -> Dict[str, Dict[str, float]]:
        """``{span name: {calls, incl_s, self_s}}`` over spans starting in ``[lo, hi)``."""
        out: Dict[str, Dict[str, float]] = {}
        for name_id, _tid, start, end, self_s in self.spans:
            if not lo <= start < hi:
                continue
            row = out.setdefault(
                self._names[name_id], {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += self_s
        return out

    def covered_seconds(self, lo: float, hi: float) -> float:
        """Seconds of ``[lo, hi]`` inside at least one span, on any thread.

        Spans of different threads overlap (a service round in a worker
        thread while the loop thread enqueues a job), so coverage is the
        length of the union of intervals, never a sum.
        """
        intervals = sorted(
            (max(start, lo), min(end, hi))
            for _n, _t, start, end, _s in self.spans
            if end > lo and start < hi
        )
        covered = 0.0
        cur_lo: Optional[float] = None
        cur_hi = 0.0
        for start, end in intervals:
            if cur_lo is None or start > cur_hi:
                if cur_lo is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = start, end
            else:
                cur_hi = max(cur_hi, end)
        if cur_lo is not None:
            covered += cur_hi - cur_lo
        return covered

    def spans_payload(self) -> Dict[str, Any]:
        """Every span, columnar, with times relative to installation."""
        t0 = self.t_install or 0.0
        threads: Dict[int, int] = {}
        return {
            "names": list(self._names),
            "columns": ["name", "thread", "start_s", "end_s", "self_s"],
            "rows": [
                [
                    name_id,
                    threads.setdefault(tid, len(threads)),
                    round(start - t0, 9),
                    round(end - t0, 9),
                    round(self_s, 9),
                ]
                for name_id, tid, start, end, self_s in self.spans
            ],
        }
