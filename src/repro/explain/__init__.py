"""repro.explain — per-grant decision forensics and shadow-policy
counterfactuals.

The existing observability stack can say *what* a run did; this layer
says *why each grant won* and *what a different policy would have done*:

* **Decision records** (:mod:`repro.explain.records`): for every grant,
  the candidate set with each candidate's full priority key decomposed
  into named per-policy components, the winner's margin over the
  runner-up, and tie-break provenance — feasible because ``priority``
  is a pure decision function by policy contract.
* **Shadow policies** (:mod:`repro.explain.shadow`): full instances of
  other registry schedulers fed the same arrivals / grants /
  completions, recording which request each would have granted, with
  policy×policy disagreement matrices and per-thread
  would-have-been-granted deltas.
* **Collector** (:mod:`repro.explain.collector`): a run observer
  (:mod:`repro.sim.observer`) — bit-identical results with or without
  it — plus a starvation watch and the TCM cluster-flip timeline.
* **Surfaces**: ``explain`` / ``starvation`` telemetry events, Perfetto
  counters and markers (:mod:`repro.telemetry.sinks`), and the explain
  sections of the run report and the no-JS run page
  (:func:`repro.obs.text.render_run_text`,
  :func:`repro.obs.dashboard.render_run_page`), which the CLI ``obs``
  prints and draws beside the same run's attribution.

See docs/EXPLAIN.md for the record schema and the shadow fidelity
contract (a self-shadow agrees with 100% of grants).
"""

from repro.explain.collector import (
    KEEP_RECORDS,
    STARVATION_THRESHOLD,
    ExplainCollector,
    attach_explain,
)
from repro.explain.records import (
    CLASS_BIT,
    TIE_ONLY,
    TIE_PRIORITY,
    TIE_QUEUE_ORDER,
    CandidateRecord,
    DecisionRecord,
    Margin,
    margin_of,
    record_structure,
)
from repro.explain.shadow import (
    ShadowPARBS,
    ShadowPolicy,
    ShadowSystemView,
    canonical_policy_key,
    make_shadow,
)

__all__ = [
    "CLASS_BIT",
    "CandidateRecord",
    "DecisionRecord",
    "ExplainCollector",
    "KEEP_RECORDS",
    "Margin",
    "STARVATION_THRESHOLD",
    "ShadowPARBS",
    "ShadowPolicy",
    "ShadowSystemView",
    "TIE_ONLY",
    "TIE_PRIORITY",
    "TIE_QUEUE_ORDER",
    "attach_explain",
    "canonical_policy_key",
    "make_shadow",
    "margin_of",
    "record_structure",
]
