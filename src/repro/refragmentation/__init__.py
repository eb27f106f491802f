"""Live refragmentation: advisor-driven boundary redraws without downtime.

The fragmentation decides the parallel transitive-closure cost — that is the
paper's whole premise — yet a served layout erodes as updates land: borders
grow, complementary information bloats, the update stream concentrates where
the boundaries are not.  This package closes the loop:

* :mod:`~repro.refragmentation.advisor` — the :class:`RefragmentationAdvisor`
  watches delta-log / version-vector skew, border growth and cross-fragment
  edge ratio, and recommends a concrete replacement layout (policy-pluggable,
  reusing the :mod:`repro.fragmentation` strategies and metrics),
* :mod:`~repro.refragmentation.live` — :func:`align_layout` matches a
  proposed layout's fragments to the deployed ids by edge overlap, so
  surviving fragments keep their sites, caches and owner workers.

A redraw is then absorbed the way a write is: ``FragmentedDatabase.refragment``
hands the aligned layout to the :mod:`repro.incremental` maintainer, which
repairs the disconnection sets whose membership moved, rebuilds only the
changed fragments' sites and keeps the engine (and with it the serving
layer's caches and worker pool) alive; the database records a replayable
``refragment`` delta record carrying the new layout, so replicas can follow a
reorganisation instead of resnapshotting.  ``QueryService.refragment`` /
``auto_refragment=`` wire it into serving, and the same update listener that
absorbs a write evicts and re-pins after a redraw.
"""

from .advisor import (
    DEFAULT_BORDER_GROWTH_THRESHOLD,
    DEFAULT_CROSS_RATIO_THRESHOLD,
    DEFAULT_MIN_BORDER_GAIN,
    DEFAULT_UPDATE_SKEW_THRESHOLD,
    REFRAGMENT_ALGORITHMS,
    LayoutSignals,
    RefragmentationAdvice,
    RefragmentationAdvisor,
    RefragmentationAssessment,
    fragmenter_for,
    measure_layout,
)
from ..incremental.maintainer import RefragmentResult
from .live import align_layout

__all__ = [
    "DEFAULT_BORDER_GROWTH_THRESHOLD",
    "DEFAULT_CROSS_RATIO_THRESHOLD",
    "DEFAULT_MIN_BORDER_GAIN",
    "DEFAULT_UPDATE_SKEW_THRESHOLD",
    "LayoutSignals",
    "REFRAGMENT_ALGORITHMS",
    "RefragmentResult",
    "RefragmentationAdvice",
    "RefragmentationAdvisor",
    "RefragmentationAssessment",
    "align_layout",
    "fragmenter_for",
    "measure_layout",
]
