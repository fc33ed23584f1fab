"""Fault injection and graceful degradation.

Deterministic fault campaigns (:mod:`repro.faults.campaign`), their
runtime application to the plant (:mod:`repro.faults.injector`), the
controller-side telemetry sanitizer (:mod:`repro.faults.sanitizer`), and
the simulator's watchdog wrapper (:mod:`repro.faults.watchdog`).  See
``docs/robustness.md`` for the taxonomy and the degradation policies.
"""

from repro.faults.campaign import (
    SENSOR_CHANNELS,
    ActuatorFault,
    ControllerCrash,
    CoreDeathFault,
    FaultCampaign,
    TelemetryBlackout,
)
from repro.faults.sanitizer import (
    SanitizedTelemetry,
    SanitizerPolicy,
    TelemetrySanitizer,
)
from repro.faults.watchdog import WatchdogController

__all__ = [
    "SENSOR_CHANNELS",
    "ActuatorFault",
    "ControllerCrash",
    "CoreDeathFault",
    "FaultCampaign",
    "TelemetryBlackout",
    "SanitizedTelemetry",
    "SanitizerPolicy",
    "TelemetrySanitizer",
    "WatchdogController",
]
