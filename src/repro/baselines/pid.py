"""PID power-capping baseline.

The industrial state of practice (Intel RAPL-style firmware): a chip-level
PI feedback loop on total power error drives one *global* level signal that
all cores follow.  Reacts fast and tracks the budget tightly, but:

* it regulates the *average* — roughly half the epochs sit above the budget
  while the loop hunts (the overshoot OD-RL's claim C1 is measured against);
* it cannot differentiate cores, so memory-bound cores get the same
  frequency as compute-bound ones and watts are spent where they buy no
  throughput.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.manycore.chip import EpochObservation
from repro.manycore.config import SystemConfig
from repro.sim.interface import StackView

__all__ = ["PIDCappingController"]


class PIDCappingController(StackView):
    """Chip-level PI feedback on power error, actuating a global VF level.

    Implemented in velocity form, which is windup-free by construction:

        command += kp * (error - prev_error) + ki * error

    where ``error = (budget - power) / budget`` and ``command`` is a
    continuous level index rounded at actuation.  The loop runs in row 0
    of the controller's one-row :class:`repro.kernel.policies.BatchPID`.

    Parameters
    ----------
    cfg:
        System under control.
    kp:
        Proportional gain (on the error *change*), in level steps.
    ki:
        Integral gain (on the error itself), in level steps per epoch.
    """

    name = "pid"
    _stack_policy = "BatchPID"

    def __init__(self, cfg: SystemConfig, kp: float = 2.0, ki: float = 1.5) -> None:
        super().__init__(cfg)
        if kp < 0 or ki < 0:
            raise ValueError("gains must be non-negative")
        if kp == 0 and ki == 0:
            raise ValueError("at least one gain must be positive")
        self.kp = kp
        self.ki = ki

    def reset(self) -> None:
        self.stack.reset()

    def decide(self, obs: Optional[EpochObservation]) -> np.ndarray:
        # The hop: the sensed power as a one-row [None] view.
        power = None if obs is None else np.asarray(obs.sensed_power)[None]
        return self.stack.step(power)[0]

    @property
    def _command(self) -> float:
        """The continuous level command, rounded per decision."""
        return float(self.stack._command[0])

    @property
    def _prev_error(self) -> Optional[float]:
        """The last relative power error, ``None`` before any telemetry."""
        return float(self.stack._prev_error[0]) if self.stack._has_prev[0] else None
