"""The refragmentation advisor: watch locality erode, recommend a redraw.

The paper treats fragmentation design as an offline decision, but a served
database drifts: inserts between previously unrelated fragments grow the
disconnection sets, the update stream concentrates on a few fragments, and
the complementary information — whose size is quadratic in the border sets —
bloats.  The workload-adaptive allocation literature (arXiv:1508.07845,
arXiv:1607.06063) argues the layout should follow the workload; this advisor
operationalises that for the serving stack:

* :meth:`RefragmentationAdvisor.signals` measures the deployed layout —
  border-node share, cross-fragment edge ratio, complementary fact count,
  update skew from the :class:`~repro.incremental.versions.VersionVector` /
  :class:`~repro.incremental.delta.DeltaLog`, and — when the serving layer
  hands one over — read skew from the
  :class:`~repro.observability.querylog.QueryLog`, the captured workload
  itself rather than a structural proxy for it,
* :meth:`RefragmentationAdvisor.assess` compares them against the baseline
  recorded at deployment and decides whether a redraw is warranted,
* :meth:`RefragmentationAdvisor.recommend` computes a concrete candidate
  layout with a pluggable fragmenter (defaulting to the structural
  :func:`repro.fragmentation.advisor.recommend` trial runs) and keeps it only
  when it actually restores locality — a recommendation is a measured
  improvement, never a blind re-run.

The advisor only *recommends*; executing the redraw in place is
:class:`~repro.refragmentation.live.LiveRefragmenter`'s job, reached through
``FragmentedDatabase.refragment`` / ``QueryService.refragment``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..fragmentation import (
    AdvisorConstraints,
    BondEnergyFragmenter,
    CenterBasedFragmenter,
    Fragmentation,
    Fragmenter,
    HashFragmenter,
    KConnectivityFragmenter,
    LinearFragmenter,
    recommend as recommend_fragmenter,
)
from ..fragmentation.metrics import border_node_set, complementary_information_size
from ..graph import DiGraph
from ..incremental.delta import DeltaLog
from ..incremental.versions import VersionVector
from ..observability.querylog import QueryLog

DEFAULT_BORDER_GROWTH_THRESHOLD = 1.5
DEFAULT_CROSS_RATIO_THRESHOLD = 0.6
DEFAULT_UPDATE_SKEW_THRESHOLD = 4.0
DEFAULT_QUERY_SKEW_THRESHOLD = 4.0
DEFAULT_MIN_QUERY_SAMPLE = 16
DEFAULT_MIN_BORDER_GAIN = 0.95

REFRAGMENT_ALGORITHMS = (
    "auto",
    "center",
    "center-distributed",
    "bond-energy",
    "linear",
    "k-connectivity",
    "hash",
)


def fragmenter_for(
    name: str, fragment_count: int, *, graph: Optional[DiGraph] = None, seed: int = 0
) -> Fragmenter:
    """Map an algorithm name to a configured fragmenter.

    The single name -> fragmenter mapping shared by the CLI and the serving
    layer's ``refragment`` strings.  ``auto`` delegates to the structural
    fragmentation advisor (which needs the graph).

    Raises:
        ValueError: for an unknown name, or ``auto`` without a graph.
    """
    if name == "center-distributed":
        return CenterBasedFragmenter(fragment_count, center_selection="distributed")
    if name == "center":
        return CenterBasedFragmenter(fragment_count, center_selection="random", seed=seed)
    if name == "bond-energy":
        return BondEnergyFragmenter(fragment_count)
    if name == "linear":
        return LinearFragmenter(fragment_count)
    if name == "k-connectivity":
        return KConnectivityFragmenter(fragment_count)
    if name == "hash":
        return HashFragmenter(fragment_count)
    if name == "auto":
        if graph is None:
            raise ValueError("algorithm 'auto' needs the graph to inspect")
        return recommend_fragmenter(
            graph, AdvisorConstraints(processor_count=fragment_count)
        ).fragmenter
    raise ValueError(
        f"unknown refragmentation algorithm {name!r} "
        f"(expected one of {REFRAGMENT_ALGORITHMS})"
    )


@dataclass(frozen=True)
class LayoutSignals:
    """The locality measurements of one deployed fragment layout.

    Attributes:
        fragment_count: number of fragments.
        border_nodes: distinct nodes appearing in any disconnection set.
        border_share: ``border_nodes / total nodes`` (0.0 for one fragment).
        cross_edge_ratio: fraction of directed edges with at least one border
            endpoint — the edges whose traversal may leave the fragment.
        complementary_facts: size of the border-to-border value store (the
            quadratic cost the paper warns about).
    """

    fragment_count: int
    border_nodes: int
    border_share: float
    cross_edge_ratio: float
    complementary_facts: int

    def as_dict(self) -> Dict[str, object]:
        """Return the signals as a flat dictionary (reporting / benchmarks)."""
        return {
            "fragment_count": self.fragment_count,
            "border_nodes": self.border_nodes,
            "border_share": round(self.border_share, 4),
            "cross_edge_ratio": round(self.cross_edge_ratio, 4),
            "complementary_facts": self.complementary_facts,
        }


@dataclass(frozen=True)
class RefragmentationAssessment:
    """The advisor's verdict on a deployed layout.

    Attributes:
        triggered: whether a redraw is warranted.
        reasons: one human-readable line per firing signal (empty when not
            triggered).
        signals: the current layout's measurements.
        baseline: the measurements recorded at deployment (``None`` when the
            advisor never saw a baseline — absolute thresholds still apply).
        update_skew: max/mean per-fragment update count from the version
            vector (1.0 = uniform, 0.0 = no updates yet).
        query_skew: max/mean per-fragment read concentration from the query
            log's retained window (0.0 when no log was provided or it was
            empty / below the minimum sample).
    """

    triggered: bool
    reasons: List[str]
    signals: LayoutSignals
    baseline: Optional[LayoutSignals]
    update_skew: float
    query_skew: float = 0.0


@dataclass
class RefragmentationAdvice:
    """A concrete recommended redraw.

    Attributes:
        fragmenter: the configured fragmenter producing the layout.
        proposed: the candidate fragmentation (over the live graph).
        current / candidate: the measured signals of both layouts.
        worthwhile: whether the candidate actually restores locality (border
            nodes shrink past the advisor's minimum-gain bar).
        rationale: human-readable comparison lines.
    """

    fragmenter: Fragmenter
    proposed: Fragmentation
    current: LayoutSignals
    candidate: LayoutSignals
    worthwhile: bool
    rationale: List[str] = field(default_factory=list)


def measure_layout(fragmentation: Fragmentation) -> LayoutSignals:
    """Measure the locality signals of a fragmentation."""
    graph = fragmentation.graph
    node_count = graph.node_count()
    border = border_node_set(fragmentation)
    cross_edges = sum(
        1 for source, target in graph.edges() if source in border or target in border
    )
    edge_count = graph.edge_count()
    return LayoutSignals(
        fragment_count=fragmentation.fragment_count(),
        border_nodes=len(border),
        border_share=len(border) / node_count if node_count else 0.0,
        cross_edge_ratio=cross_edges / edge_count if edge_count else 0.0,
        complementary_facts=complementary_information_size(fragmentation),
    )


class RefragmentationAdvisor:
    """Watches a served layout's locality and recommends boundary redraws.

    Args:
        fragmenter_factory: given ``(graph, fragment_count)``, return the
            fragmenter to compute candidate layouts with; defaults to the
            structural fragmentation advisor's trial-run recommendation.
        border_growth_threshold: trigger when the border-node count grew past
            this multiple of the baseline.
        cross_ratio_threshold: trigger when the cross-fragment edge ratio
            exceeds this absolute share (locality is gone regardless of how
            it started).
        update_skew_threshold: trigger when the per-fragment update skew
            (max/mean version) exceeds this — the update stream concentrates
            where the layout does not.
        min_query_sample: ignore the query log until it retains at least
            this many entries (a couple of warm-up queries are not a
            workload).

    Two thresholds are module constants: the advisor triggers when the query
    log's per-fragment read concentration (max/mean touches) exceeds
    :data:`DEFAULT_QUERY_SKEW_THRESHOLD` (4.0) — the workload keeps crossing
    into a few fragments the layout scattered — and a candidate layout is
    worthwhile only when its border-node count is below ``current *``
    :data:`DEFAULT_MIN_BORDER_GAIN` (0.95): a redraw is not free, and a wash
    is not worth executing.
    """

    def __init__(
        self,
        *,
        fragmenter_factory: Optional[Callable[[DiGraph, int], Fragmenter]] = None,
        border_growth_threshold: float = DEFAULT_BORDER_GROWTH_THRESHOLD,
        cross_ratio_threshold: float = DEFAULT_CROSS_RATIO_THRESHOLD,
        update_skew_threshold: float = DEFAULT_UPDATE_SKEW_THRESHOLD,
        min_query_sample: int = DEFAULT_MIN_QUERY_SAMPLE,
    ) -> None:
        if border_growth_threshold < 1.0:
            raise ValueError(
                f"border_growth_threshold must be >= 1.0, got {border_growth_threshold}"
            )
        self._fragmenter_factory = fragmenter_factory
        self._border_growth_threshold = border_growth_threshold
        self._cross_ratio_threshold = cross_ratio_threshold
        self._update_skew_threshold = update_skew_threshold
        self._min_query_sample = min_query_sample
        self._baseline: Optional[LayoutSignals] = None

    # ------------------------------------------------------------- observing

    @property
    def baseline(self) -> Optional[LayoutSignals]:
        """The signals recorded at deployment (``None`` before :meth:`observe`)."""
        return self._baseline

    def observe(self, fragmentation: Fragmentation) -> LayoutSignals:
        """Record the deployed layout as the growth baseline; returns its signals."""
        self._baseline = measure_layout(fragmentation)
        return self._baseline

    def signals(self, fragmentation: Fragmentation) -> LayoutSignals:
        """Measure the current layout without touching the baseline."""
        return measure_layout(fragmentation)

    @staticmethod
    def update_skew(
        fragmentation: Fragmentation,
        *,
        version_vector: Optional[VersionVector] = None,
        delta_log: Optional[DeltaLog] = None,
    ) -> float:
        """Return max/mean per-fragment update concentration (0.0 when idle).

        The version vector gives lifetime counts; the delta log adds the
        retained window's dirty-fragment entries, so a recent burst shows up
        even against a long uniform history.
        """
        counts: Dict[int, float] = {
            fragment_id: 0.0 for fragment_id in range(fragmentation.fragment_count())
        }
        if version_vector is not None:
            for fragment_id in counts:
                counts[fragment_id] += version_vector.version_of(fragment_id)
        if delta_log is not None:
            for record in delta_log.records():
                for fragment_id in record.dirty_fragments:
                    if fragment_id in counts:
                        counts[fragment_id] += 1.0
        total = sum(counts.values())
        if not counts or total <= 0.0:
            return 0.0
        return max(counts.values()) / (total / len(counts))

    # ------------------------------------------------------------- assessing

    def assess(
        self,
        fragmentation: Fragmentation,
        *,
        version_vector: Optional[VersionVector] = None,
        delta_log: Optional[DeltaLog] = None,
        query_log: Optional[QueryLog] = None,
    ) -> RefragmentationAssessment:
        """Decide whether the deployed layout has eroded enough to redraw.

        ``query_log`` adds the captured-workload trigger: when the retained
        window (past the minimum sample) concentrates its fragment touches
        hard enough, the layout is failing the queries actually asked even
        if every structural signal still looks healthy.
        """
        signals = measure_layout(fragmentation)
        skew = self.update_skew(
            fragmentation, version_vector=version_vector, delta_log=delta_log
        )
        query_skew = 0.0
        if query_log is not None and len(query_log) >= self._min_query_sample:
            query_skew = query_log.query_skew()
        reasons: List[str] = []
        if (
            self._baseline is not None
            and self._baseline.border_nodes > 0
            and signals.border_nodes
            > self._baseline.border_nodes * self._border_growth_threshold
        ):
            reasons.append(
                f"border nodes grew {signals.border_nodes} / "
                f"{self._baseline.border_nodes} = "
                f"{signals.border_nodes / self._baseline.border_nodes:.2f}x, past "
                f"{self._border_growth_threshold:.2f}x"
            )
        if signals.cross_edge_ratio > self._cross_ratio_threshold:
            reasons.append(
                f"cross-fragment edge ratio {signals.cross_edge_ratio:.2f} exceeds "
                f"{self._cross_ratio_threshold:.2f}"
            )
        if skew > self._update_skew_threshold:
            reasons.append(
                f"update skew {skew:.2f} exceeds {self._update_skew_threshold:.2f} "
                "(the update stream concentrates on a few fragments)"
            )
        if query_skew > DEFAULT_QUERY_SKEW_THRESHOLD:
            reasons.append(
                f"query skew {query_skew:.2f} exceeds "
                f"{DEFAULT_QUERY_SKEW_THRESHOLD:.2f} (the captured workload "
                "concentrates its reads on a few fragments)"
            )
        return RefragmentationAssessment(
            triggered=bool(reasons),
            reasons=reasons,
            signals=signals,
            baseline=self._baseline,
            update_skew=skew,
            query_skew=query_skew,
        )

    # ----------------------------------------------------------- recommending

    def recommend(
        self,
        fragmentation: Fragmentation,
        *,
        current_signals: Optional[LayoutSignals] = None,
    ) -> RefragmentationAdvice:
        """Compute a concrete candidate layout and judge whether it helps.

        The candidate keeps the deployed fragment count.  It is produced
        over the live graph with the pluggable fragmenter factory (default:
        the structural fragmentation advisor), measured with the same
        signals as the deployed layout, and marked ``worthwhile`` only when
        it shrinks the border-node count past the minimum-gain bar.
        ``current_signals`` reuses an assessment's already-computed
        measurement of the deployed layout instead of re-measuring it.
        """
        graph = fragmentation.graph
        count = fragmentation.fragment_count()
        if self._fragmenter_factory is not None:
            fragmenter = self._fragmenter_factory(graph, count)
        else:
            fragmenter = recommend_fragmenter(
                graph, AdvisorConstraints(processor_count=count)
            ).fragmenter
        proposed = fragmenter.fragment(graph.copy())
        current = current_signals or measure_layout(fragmentation)
        candidate = measure_layout(proposed)
        worthwhile = candidate.border_nodes < current.border_nodes * DEFAULT_MIN_BORDER_GAIN
        rationale = [
            f"current layout: {current.border_nodes} border nodes, "
            f"cross-edge ratio {current.cross_edge_ratio:.2f}, "
            f"{current.complementary_facts} complementary facts",
            f"candidate layout ({proposed.algorithm}): {candidate.border_nodes} border "
            f"nodes, cross-edge ratio {candidate.cross_edge_ratio:.2f}, "
            f"{candidate.complementary_facts} complementary facts",
            (
                "candidate restores locality"
                if worthwhile
                else "candidate does not improve locality enough to redraw"
            ),
        ]
        return RefragmentationAdvice(
            fragmenter=fragmenter,
            proposed=proposed,
            current=current,
            candidate=candidate,
            worthwhile=worthwhile,
            rationale=rationale,
        )
