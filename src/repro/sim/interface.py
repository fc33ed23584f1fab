"""Controller interface.

Every power-management policy — the paper's OD-RL and all baselines —
implements :class:`Controller`.  The simulator drives the loop:

    levels = controller.decide(observation_of_previous_epoch)
    observation = chip.step(levels)

``decide`` receives ``None`` on the very first epoch (no telemetry yet) and
must return a full per-core VF-level vector.  Controllers must only consume
the ``sensed_*`` observation fields plus the static :class:`SystemConfig`;
ground-truth fields exist for metrics and tests.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from typing import Any, Dict, Optional

import numpy as np

from repro.manycore.chip import EpochObservation
from repro.manycore.config import SystemConfig

__all__ = ["Controller", "StackView"]


class Controller(ABC):
    """Abstract per-epoch DVFS policy for an N-core chip.

    Parameters
    ----------
    cfg:
        The system the controller manages.  Gives it the VF table, core
        count, epoch length and the chip power budget — the same information
        real power-management firmware is provisioned with.

    Attributes
    ----------
    name:
        Short identifier used in experiment tables.
    """

    #: overridden by concrete classes
    name: str = "controller"

    def __init__(self, cfg: SystemConfig) -> None:
        if cfg.power_budget <= 0:
            raise ValueError("controller requires a positive power budget")
        if not cfg.vf_levels:
            raise ValueError("controller requires a non-empty VF table")
        self.cfg = cfg

    @property
    def n_cores(self) -> int:
        return self.cfg.n_cores

    @property
    def n_levels(self) -> int:
        return self.cfg.n_levels

    def reset(self) -> None:
        """Clear any learned/internal state before a fresh run.

        The default is stateless; stateful controllers override.
        """

    @abstractmethod
    def decide(self, obs: Optional[EpochObservation]) -> np.ndarray:
        """Return the per-core VF level vector for the next epoch.

        Parameters
        ----------
        obs:
            Telemetry of the epoch that just finished, or ``None`` before
            the first epoch.

        Returns
        -------
        numpy.ndarray
            Integer array of shape ``(n_cores,)`` with entries in
            ``[0, n_levels)``.
        """

    def _full(self, level: int) -> np.ndarray:
        """Convenience: every core at the same ``level``."""
        return np.full(self.n_cores, int(level), dtype=int)


class _GoneView:
    """What a one-row stack holds in place of its controller once the
    controller is collected: any read raises a :class:`ReferenceError`
    that names the cause (a bare weak proxy's error does not)."""

    def __getattr__(self, name: str) -> Any:
        raise ReferenceError(
            f"cannot read {name!r}: the controller of this one-row stack no "
            "longer exists.  build_batch_policy returns a lone stock "
            "controller's own stack, which holds the controller weakly; keep "
            "a reference to the controller for as long as the policy decides."
        )


def _link(view: StackView, stack: Any) -> None:
    """Point ``stack`` at ``view`` through a weak proxy (a strong reference
    would be a cycle keeping finished runs alive).  When the view is
    collected, the proxy's callback swaps in a :class:`_GoneView`."""
    stack_ref = weakref.ref(stack)

    def orphan(_: object) -> None:
        orphaned = stack_ref()
        if orphaned is not None:
            orphaned.controllers = [_GoneView()]

    stack.controllers = [weakref.proxy(view, orphan)]


class StackView(Controller):
    """A one-row view of a batch policy, as the chip views the epoch
    kernel: the run's state is row 0 of :attr:`stack`, its decide hops
    there, and a lone run of it decides through that stack."""

    #: the :mod:`repro.kernel.policies` class of the stack
    _stack_policy = ""
    _stack: Any = None

    @property
    def stack(self) -> Any:
        """The run's one-row stack, built on first use (a controller that a
        larger stack adopts never builds one).  It sees this controller
        through a weak proxy (see :func:`_link`)."""
        if self._stack is None:
            # Imported here: repro.kernel.policies imports the controllers.
            from repro.kernel import policies

            self._stack = getattr(policies, self._stack_policy)([weakref.proxy(self)])
            _link(self, self._stack)
        return self._stack

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # Unpickling: relink the stack's weak proxy, which the policy's
        # __getstate__ drops because it cannot be pickled.
        self.__dict__.update(state)
        if self._stack is not None and self._stack.controllers is None:
            _link(self, self._stack)
