"""Symmetry detection and symmetry breaking for multi-context systems."""

from .errors import (
    BoundExceeded,
    InsufficientBeliefState,
    InternalError,
    McsymError,
    ParseError,
)
from .perm import (
    Atom,
    Permutation,
    apply,
    compose,
    emit_cycles,
    group_closure,
    join,
    join_sets,
    orbit,
    orbit_of_states,
    parse_cycles,
    reduce_irredundant,
)
from .asp import (
    Rule,
    answer_sets,
    emit_program,
    emit_rule,
    extend_stratified,
    is_answer_set,
    occurring_atoms,
    parse_program,
    reduct,
    rule,
)
from .mcs import (
    BeliefState,
    BridgeRule,
    Context,
    System,
    applicable,
    brute_force_partial_symmetries,
    emit_system,
    enumerate_partial_equilibria,
    evaluate_distributed,
    import_closure,
    is_equilibrium,
    is_local_symmetry,
    is_partial_equilibrium,
    is_partial_symmetry,
    is_symmetry,
    load_system,
    parse_system,
)
from .autograph import Graph, automorphism_generators, is_automorphism, refine_colouring
from .detect import (
    DetectionService,
    PermSet,
    build_gap,
    dsd,
    graph_perm_to_partial_symmetry,
    lsd,
)
from .sbc import (
    AtomOrder,
    build_pc,
    default_order,
    encode_asp,
    extend_mcs,
    lex_leader_filter,
    pc_satisfied,
    project_original,
    select_breaking_set,
    vec,
)
from .bench import (
    RunReport,
    TopologySpec,
    generate,
    report_table,
    run_pipeline,
    topology_edges,
)

__version__ = "0.1.0"
