"""repro.obs — request-lifecycle spans, interference attribution, the
run report and pages.

The observability layer over :mod:`repro.telemetry`'s raw events:

* :mod:`repro.obs.spans` — decompose every request's latency into
  cause-tagged, culprit-tagged wait intervals, applying STFM's
  interference accounting to every scheduler;
* :mod:`repro.obs.attribution` — fold spans into a T×T
  ``delay[victim][culprit]`` matrix with per-thread cause breakdowns
  and attribution-derived slowdown estimates;
* :mod:`repro.obs.aggregate` — collect page-ready data from a single
  run (spans, epoch samples and explain observing one simulation) or a
  whole campaign store;
* :mod:`repro.obs.text` — the only module that prints a run's text
  report: :func:`~repro.obs.text.render_run_text`, with the run page's
  sections as aligned tables;
* :mod:`repro.obs.dashboard` — the only module that draws pages: one
  self-contained HTML run page (inline SVG, no JS) with a section per
  kind of observer data — spans, explain, prof — and one campaign
  page, on one chart kit and one palette.

Typical use::

    from repro.telemetry import Telemetry
    from repro.obs import attribution_report

    telemetry = Telemetry.observing()
    system = System(workload, make_scheduler("tcm"), cfg,
                    telemetry=telemetry)
    result = system.run()
    report = attribution_report(telemetry.spans)
"""

from repro.obs.spans import (
    CAUSE_BUS,
    CAUSE_QUEUE,
    CAUSE_ROW,
    CAUSE_SERVICE,
    CAUSES,
    RequestSpan,
    SpanCollector,
    WaitInterval,
    attach_spans,
)
from repro.obs.attribution import (
    AttributionReport,
    attribution_report,
    reconcile,
)

__all__ = [
    "AttributionReport",
    "CAUSE_BUS",
    "CAUSE_QUEUE",
    "CAUSE_ROW",
    "CAUSE_SERVICE",
    "CAUSES",
    "RequestSpan",
    "SpanCollector",
    "WaitInterval",
    "attach_spans",
    "attribution_report",
    "reconcile",
]
