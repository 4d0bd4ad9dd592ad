"""Exact engine for crystal combinatorics realized as lattice points of
inequality systems, with braid-type isomorphisms and a breadth-first oracle."""

from .braid import (
    BraidContext,
    apply_at,
    map_values,
    map_values_nested,
    phi,
    run_property_suite,
    transport,
)
from .cartan import (
    CartanData,
    IndexSequence,
    Weight,
    cartan_from_matrix,
    rank2_cartan,
    weight,
)
from .closed_forms import (
    a_sequence,
    an_system,
    get_builtin,
    l_max,
    rank2_system,
)
from .crystals import NEG_INF, TensorWord
from .forms import DescentSystem, FormSet, LinearForm
from .zvectors import MSet, SequenceCrystal, ZVector, check_crystal_axioms

__version__ = "0.1.0"

__all__ = [
    "BraidContext",
    "CartanData",
    "DescentSystem",
    "FormSet",
    "IndexSequence",
    "LinearForm",
    "MSet",
    "NEG_INF",
    "SequenceCrystal",
    "TensorWord",
    "Weight",
    "ZVector",
    "a_sequence",
    "an_system",
    "apply_at",
    "cartan_from_matrix",
    "check_crystal_axioms",
    "get_builtin",
    "l_max",
    "map_values",
    "map_values_nested",
    "phi",
    "rank2_cartan",
    "rank2_system",
    "run_property_suite",
    "transport",
    "weight",
]
