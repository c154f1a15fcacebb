"""Exact intersection pairings on free groups.

Core objects: reduced and cyclic words, marked metric graphs (charts with
exact rational lengths), rational geodesic currents, the two-route
intersection pairing, expanding graph-map dynamics, and one-edge free
splittings with their desk-scale graphs.
"""

from .words import (
    Automorphism,
    CyclicWord,
    OuterintError,
    Word,
    compose,
    cyclic_length,
    cyclic_reduce,
    parse_word,
    primitive_root,
    reduce,
    word_length,
)
from .marked_graph import (
    MarkedMetricGraph,
    Marking,
    SerreGraph,
    act as act_on_graph,
    bbt_upper_bound,
    edge_crossings,
    lemma_ll_check,
    rose,
    translation_length,
    unit_rose,
)
from .currents import (
    RationalCurrent,
    act as act_on_current,
    add,
    counting_current,
    cylinder_count,
    frequency_vector,
    one_letter_mass,
    scale,
    zero_current,
)
from .intersection import (
    LengthFunctionOracle,
    RouteDisagreement,
    equivariance_check,
    intersect,
    intersect_oracle,
    scaling_modulus_experiment,
)
from .dynamics import (
    GraphMap,
    PFResult,
    TransitionMatrix,
    eigencurrent_approx,
    metric_from_pf,
    pairing_estimate,
    pf_eigenpair,
    stable_length_oracle,
    transition_matrix,
)
from .splittings import (
    FreeSplitting,
    bfs_distance,
    fstar_adjacent,
    intersection_graph_adjacent,
    is_elliptic,
    loop_splitting,
    refinement_adjacent,
    separating_splitting,
    splitting_length,
    vertex_key,
)

__version__ = "0.1.0"
