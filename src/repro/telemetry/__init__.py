"""Synthetic field memory-error telemetry substrate.

This package plays the role of the MareNostrum 3 monitoring infrastructure
described in Section 2.1 of the paper: the mcelog-based corrected-error
daemon, the IBM-firmware uncorrected-error log, node boot events, DIMM
retirement records and over-temperature shutdowns.  Because the original
production logs are proprietary, the package also contains a statistically
faithful *generator* of such logs (see ``DESIGN.md`` for the substitution
rationale).

Public entry points
-------------------
:class:`ClusterTopology`      — nodes, DIMMs and their manufacturers.
:class:`FaultModelConfig`     — parameters of the per-DIMM fault processes.
:class:`TelemetryGenerator`   — produces an :class:`ErrorLog`.
:class:`ErrorLog`             — columnar, NumPy-backed event log.
:func:`reduce_ue_bursts`      — keep only the first UE of each burst (§2.1.3).
:func:`remove_retirement_bias` — drop events from admin-retired DIMMs (§2.1.4).
:func:`merge_step_ends`       — per-node per-minute step boundaries (§3.2.3).
"""

from repro.telemetry.error_log import ErrorLog
from repro.telemetry.fault_model import FaultModelConfig
from repro.telemetry.generator import TelemetryGenerator, generate_error_log
from repro.telemetry.mcelog import (
    format_full_log,
    format_mcelog,
    format_ue_log,
    iter_mcelog_records,
    parse_mcelog,
    parse_ue_log,
)
from repro.telemetry.merging import merge_step_ends
from repro.telemetry.records import (
    EventKind,
    EventRecord,
    MANUFACTURER_NAMES,
)
from repro.telemetry.reduction import (
    prepare_log,
    reduce_ue_bursts,
    remove_retirement_bias,
)
from repro.telemetry.topology import ClusterTopology

__all__ = [
    "ClusterTopology",
    "ErrorLog",
    "EventKind",
    "EventRecord",
    "FaultModelConfig",
    "MANUFACTURER_NAMES",
    "TelemetryGenerator",
    "format_full_log",
    "format_mcelog",
    "format_ue_log",
    "generate_error_log",
    "iter_mcelog_records",
    "merge_step_ends",
    "parse_mcelog",
    "parse_ue_log",
    "prepare_log",
    "reduce_ue_bursts",
    "remove_retirement_bias",
]
