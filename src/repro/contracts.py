"""Runtime invariant contracts for the OD-RL control loop.

A silently negative power sample, a budget reallocation that loses watts,
or a NaN creeping into a Q-table would corrupt every E1–E14 result
without failing a single unit test.  This module provides cheap,
vectorized validators for the physical and numerical invariants the
simulator relies on, and a single switch to arm them:

* set the environment variable ``REPRO_VALIDATE=1``, or
* pass ``validate=True`` to :func:`repro.sim.simulator.simulate`,
  :class:`repro.manycore.chip.ManyCoreChip`,
  :class:`repro.core.agent.QLearningPopulation` (the tabular learner
  OD-RL and centralized RL share) or
  :func:`repro.core.budget.reallocate_budget`.

Each validator raises :class:`InvariantViolation` naming the epoch, the
offending core (or agent), and the quantity, so a corrupted run dies at
the first bad number instead of producing a plausible-looking plot.
Overhead with validation off is a single ``if``; measured overhead with
validation on is documented in ``docs/correctness.md``.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

__all__ = [
    "InvariantViolation",
    "validation_enabled",
    "check_power_samples",
    "check_budget_conservation",
    "check_level_indices",
    "check_observation_sane",
    "check_q_table",
    "check_time_monotone",
]

_TRUTHY = frozenset({"1", "true", "yes", "on"})


class InvariantViolation(AssertionError):
    """A runtime physical/numerical invariant was broken.

    Attributes
    ----------
    quantity:
        Short name of the violated quantity (e.g. ``"power_w"``).
    epoch:
        Control epoch at which the violation was detected, when known.
    core:
        Offending core/agent index, when the check is per-core.
    """

    def __init__(
        self,
        quantity: str,
        message: str,
        epoch: Optional[int] = None,
        core: Optional[int] = None,
    ) -> None:
        self.quantity = quantity
        self.epoch = epoch
        self.core = core
        where = []
        if epoch is not None:
            where.append(f"epoch {epoch}")
        if core is not None:
            where.append(f"core {core}")
        prefix = f"[{', '.join(where)}] " if where else ""
        super().__init__(f"{prefix}{quantity}: {message}")


def validation_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the validation switch.

    ``override`` (a ``validate=`` kwarg) wins when not ``None``; otherwise
    the ``REPRO_VALIDATE`` environment variable decides (``1``/``true``/
    ``yes``/``on``, case-insensitive, arm it).
    """
    if override is not None:
        return override
    return os.environ.get("REPRO_VALIDATE", "").strip().lower() in _TRUTHY


def _first_bad_index(bad: np.ndarray) -> Optional[int]:
    idx = np.flatnonzero(bad)
    return int(idx[0]) if idx.size else None


def check_power_samples(
    power_w: np.ndarray, epoch: Optional[int] = None, quantity: str = "power_w"
) -> None:
    """Power samples must be finite and non-negative (watts)."""
    power_w = np.asarray(power_w)
    finite = np.isfinite(power_w)
    if not finite.all():
        core = _first_bad_index(~finite)
        value = power_w.reshape(-1)[core] if core is not None else float("nan")
        raise InvariantViolation(
            quantity, f"non-finite sample {value!r}", epoch=epoch, core=core
        )
    negative = power_w < 0
    if negative.any():
        core = _first_bad_index(negative)
        value = power_w.reshape(-1)[core] if core is not None else float("nan")
        raise InvariantViolation(
            quantity, f"negative sample {value:.6g} W", epoch=epoch, core=core
        )


def check_budget_conservation(
    allocation_w: np.ndarray,
    expected_total_w: float,
    floors_w: Optional[np.ndarray] = None,
    caps_w: Optional[np.ndarray] = None,
    epoch: Optional[int] = None,
    rtol: float = 1e-6,
    atol: float = 1e-6,
) -> None:
    """A budget split must conserve watts and respect per-core bounds.

    ``allocation_w`` must sum to ``expected_total_w`` within tolerance —
    a reallocation step that loses (or mints) watts corrupts every
    downstream compliance number — and, when given, stay inside
    ``[floors_w, caps_w]`` elementwise.
    """
    allocation_w = np.asarray(allocation_w, dtype=float)
    check_power_samples(allocation_w, epoch=epoch, quantity="budget_share_w")
    total = float(np.sum(allocation_w))
    if not np.isclose(total, expected_total_w, rtol=rtol, atol=atol):
        raise InvariantViolation(
            "budget_total_w",
            f"allocation sums to {total:.9g} W, expected "
            f"{expected_total_w:.9g} W (watts not conserved)",
            epoch=epoch,
        )
    if floors_w is not None:
        below = allocation_w < np.asarray(floors_w, dtype=float) - atol
        if below.any():
            core = _first_bad_index(below)
            raise InvariantViolation(
                "budget_share_w",
                f"share {allocation_w[core]:.6g} W below its floor",
                epoch=epoch,
                core=core,
            )
    if caps_w is not None:
        above = allocation_w > np.asarray(caps_w, dtype=float) + atol
        if above.any():
            core = _first_bad_index(above)
            raise InvariantViolation(
                "budget_share_w",
                f"share {allocation_w[core]:.6g} W above its cap",
                epoch=epoch,
                core=core,
            )


def check_level_indices(
    levels: np.ndarray, n_levels: int, epoch: Optional[int] = None
) -> None:
    """VF level indices must be integral and inside the VF table."""
    levels = np.asarray(levels)
    if not np.issubdtype(levels.dtype, np.integer):
        raise InvariantViolation(
            "vf_level",
            f"level indices must be integers, got dtype {levels.dtype}",
            epoch=epoch,
        )
    bad = (levels < 0) | (levels >= n_levels)
    if bad.any():
        core = _first_bad_index(bad)
        raise InvariantViolation(
            "vf_level",
            f"index {int(levels.reshape(-1)[core])} outside VF table "
            f"[0, {n_levels})",
            epoch=epoch,
            core=core,
        )


def check_q_table(
    q: np.ndarray, step: Optional[int] = None, quantity: str = "q_table"
) -> None:
    """Q-values must stay finite after every TD update.

    A NaN or inf in one cell spreads through the max/bootstrap term to the
    whole table within a few epochs; fail at the first one.  ``step`` is
    reported in the epoch slot of the violation.
    """
    finite = np.isfinite(q)
    if not finite.all():
        flat = _first_bad_index(~np.asarray(finite).reshape(-1))
        agent = None
        if flat is not None and q.ndim >= 1 and q.size:
            agent = int(flat // int(np.prod(q.shape[1:], dtype=int) or 1))
        raise InvariantViolation(
            quantity,
            "non-finite Q-value after TD update",
            epoch=step,
            core=agent,
        )


def check_observation_sane(
    sensed_power_w: np.ndarray,
    sensed_instructions: np.ndarray,
    sensed_temperature_k: np.ndarray,
    levels: np.ndarray,
    n_levels: int,
    epoch: Optional[int] = None,
) -> None:
    """The telemetry handed to a controller must be physically plausible.

    Sensed power must be finite and non-negative (a dropout legitimately
    reads zero — that is a *valid* faulty reading, handled by the telemetry
    sanitizer, not an invariant violation); sensed instruction counts must
    be finite and non-negative; sensed temperatures must be finite (a
    blacked-out diode reads zero kelvin, again finite); and the applied VF
    levels must index the VF table.  This is the gate between the plant and
    the controller: it catches simulator/injector bugs that would otherwise
    surface as mysterious learning divergence.
    """
    check_power_samples(sensed_power_w, epoch=epoch, quantity="sensed_power_w")
    instructions = np.asarray(sensed_instructions)
    bad = ~np.isfinite(instructions) | (instructions < 0)
    if bad.any():
        core = _first_bad_index(bad)
        value = instructions.reshape(-1)[core] if core is not None else None
        raise InvariantViolation(
            "sensed_instructions",
            f"implausible sample {value!r}",
            epoch=epoch,
            core=core,
        )
    temperature = np.asarray(sensed_temperature_k)
    bad = ~np.isfinite(temperature)
    if bad.any():
        core = _first_bad_index(bad)
        value = temperature.reshape(-1)[core] if core is not None else None
        raise InvariantViolation(
            "sensed_temperature_k",
            f"non-finite sample {value!r}",
            epoch=epoch,
            core=core,
        )
    check_level_indices(levels, n_levels, epoch=epoch)


def check_time_monotone(
    t_prev_s: float, t_now_s: float, epoch: Optional[int] = None
) -> None:
    """Epoch timestamps must strictly increase (seconds)."""
    if not np.isfinite(t_now_s) or t_now_s <= t_prev_s:
        raise InvariantViolation(
            "time_s",
            f"timestamp {t_now_s!r} does not advance past {t_prev_s!r}",
            epoch=epoch,
        )
