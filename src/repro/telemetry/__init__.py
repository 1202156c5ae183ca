"""What every process records: metrics, flight records, phase names.

The recording half of the observability plane, split from
:mod:`repro.obs` so a node process imports it without the analysis half
(stitching, time series, the HTTP exporter):

* :mod:`repro.telemetry.registry` -- :class:`MetricRegistry` with its
  counters, gauges and fixed-bucket histograms;
* :mod:`repro.telemetry.stats` -- the one nearest-rank percentile;
* :mod:`repro.telemetry.flight` -- the node's flight recorder;
* :mod:`repro.telemetry.tracing` -- client op spans;
* :mod:`repro.telemetry.phases` -- the phase names client spans and
  node histograms both label by;
* :mod:`repro.telemetry.loglimit` -- rate-limited warnings.

The package imports none of its modules and nothing from the rest of
the repository; :mod:`repro.obs` re-exports every public name.
"""
