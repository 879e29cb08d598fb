"""Span-one linked partition ideals, their generating functions, and
machine-checkable factorizations of the attached q-difference systems."""

from .series import Series, TruncationRangeError
from .partitions import (
    format_partition,
    kr_i1_predicate,
    oracle_genfun,
    parse_partition,
    partitions_of,
    satisfies_gap,
)
from .ideals import (
    IdealError,
    SpanOneIdeal,
    associated_graph,
    contains,
    enumerate_members,
    ideal_from_json,
    ideal_genfun_vec,
    load_ideal,
)
from .qdiff import QDiffSystem, check_system, f_from_g, solve
from .multisum import (
    MultisumProfile,
    check_additional,
    check_positivity,
    eval_H,
    load_profile,
    rec_children,
    shift_beta,
    verify_recurrence_numeric,
)
from .prover import (
    AssemblyError,
    Expand,
    FactorizationSystem,
    Leaf,
    SearchExhausted,
    assemble_system,
    check_certs,
    derive_row,
    equivalent_systems,
    expansions,
    leaf_combination,
    load_cert,
    load_system_spec,
    tree_to_dot,
    verify_numeric,
)


def fixture_path(name: str):
    """Path to one of the bundled example definitions (json files)."""
    from pathlib import Path

    return Path(__file__).parent / "fixtures" / name
