"""Fragmentation framework: the paper's core contribution.

Value objects (:class:`Fragment`, :class:`Fragmentation`), the fragmentation
graph, the characteristic metrics of Tables 1-3, and the fragmentation
algorithms: center-based (Sec. 3.1), bond-energy (Sec. 3.2), linear
(Sec. 3.3), the rejected k-connectivity idea, and the trivial baselines.
"""

from .advisor import AdvisorConstraints, Recommendation, recommend
from .base import Fragment, Fragmentation, fragmentation_from_node_blocks
from .baselines import GroundTruthFragmenter, HashFragmenter
from .bond_energy import BondEnergyFragmenter
from .center_based import (
    CENTER_SELECTION_DISTRIBUTED,
    CENTER_SELECTION_RANDOM,
    CenterBasedFragmenter,
)
from .fragmentation_graph import FragmentationGraph
from .kconnectivity import KConnectivityFragmenter
from .linear import (
    SWEEP_BOTTOM_TO_TOP,
    SWEEP_LEFT_TO_RIGHT,
    SWEEP_RIGHT_TO_LEFT,
    SWEEP_TOP_TO_BOTTOM,
    LinearFragmenter,
)
from .metrics import (
    FragmentationCharacteristics,
    characterize,
    complementary_information_size,
    fragment_diameters,
    total_border_nodes,
)
from .protocols import Fragmenter

__all__ = [
    "AdvisorConstraints",
    "Recommendation",
    "recommend",
    "BondEnergyFragmenter",
    "CENTER_SELECTION_DISTRIBUTED",
    "CENTER_SELECTION_RANDOM",
    "CenterBasedFragmenter",
    "Fragment",
    "Fragmentation",
    "FragmentationCharacteristics",
    "FragmentationGraph",
    "Fragmenter",
    "GroundTruthFragmenter",
    "HashFragmenter",
    "KConnectivityFragmenter",
    "LinearFragmenter",
    "SWEEP_BOTTOM_TO_TOP",
    "SWEEP_LEFT_TO_RIGHT",
    "SWEEP_RIGHT_TO_LEFT",
    "SWEEP_TOP_TO_BOTTOM",
    "characterize",
    "complementary_information_size",
    "fragment_diameters",
    "fragmentation_from_node_blocks",
    "total_border_nodes",
]
