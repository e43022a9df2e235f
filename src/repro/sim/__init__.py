"""Calibrated cluster simulator (reproduces §IV production metrics).

The paper's evaluation is telemetry from a >1000-machine production
cluster.  A pure-Python process cannot replay 40M QPS, so the macro
figures (16-19 and Table II) come from a discrete-step Monte-Carlo
simulator whose inputs are:

* per-operation service-time distributions, **calibrated against the real
  implementation in this repository** (:mod:`calibrate`) and scaled by a
  documented C++/Python factor;
* the paper's fleet size, cache-hit ratio and traffic curves
  (:mod:`~repro.workload.diurnal`);
* a fault schedule for the availability experiment (:mod:`faults`).

The mechanisms producing the curve *shapes* — queueing delay growing with
utilisation, the hit/miss latency gap, isolation removing write-path
contention — are modelled explicitly, so the simulator reproduces the
paper's qualitative claims rather than just replaying its numbers.
"""

from .calibrate import CalibrationResult, calibrate_service_times
from .driver import ClusterSimulator, ServiceProfile, StepMetrics
from .faults import FaultEvent, FaultSchedule
from .metrics import TimeSeries, percentile

__all__ = [
    "CalibrationResult",
    "ClusterSimulator",
    "FaultEvent",
    "FaultSchedule",
    "ServiceProfile",
    "StepMetrics",
    "TimeSeries",
    "calibrate_service_times",
    "percentile",
]
