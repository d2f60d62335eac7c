"""Flat connections over finite 2-complexes with finite structure groups.

The library models a base space as a finite connected 2-complex, a flat
connection as a voltage assignment (one group element per oriented edge,
relator products trivial), and total spaces as derived graphs.  Coverings
come from coset automata; pulling a connection back along a covering and
comparing holonomy data is the main workflow, exposed through
:mod:`flatconn.theorems` and the ``flatconn`` CLI.

One convention propagates everywhere: products are path-ordered
left-to-right, and permutations compose left-to-right to match ("apply p,
then q").  Element 0 of every group is the identity.
"""

from .complexes import (
    BaseComplex,
    Edge,
    Presentation,
    SpanningTreeData,
    pi1_presentation,
    spanning_tree,
    validate_complex,
)
from .connections import (
    HolonomyMorphism,
    Voltage,
    check_flatness,
    holonomy_group,
    holonomy_morphism,
    kernel_automaton,
)
from .covers import (
    CoveringComplex,
    build_cover,
)
from .bundles import (
    DerivedBundle,
    derived_bundle,
)
from .groups import (
    GroupTable,
    SubgroupSet,
    catalog_group,
    enumerate_subgroups,
    group_from_permutations,
    subgroup_closure,
)
from .subgroups import (
    CosetAutomaton,
    SubgroupSpec,
    automata_equal,
    automaton_from_quotient,
    automaton_from_spec,
    is_normal_subgroup,
    stallings_core,
    todd_coxeter,
)
from .theorems import (
    Instance,
    OracleResult,
    VerificationReport,
    is_induced_trivial,
    oracle_holonomy,
    pullback_voltage,
    verify_cor_2_2,
    verify_functoriality,
    verify_prop_2_1,
    verify_prop_2_3,
    verify_prop_2_4,
    verify_theorem_1_1,
)

__version__ = "0.1.0"
