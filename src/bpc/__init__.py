"""Exact bordered bimodule calculus for (2,2n) torus-link complements."""

from .algebra import mul_basis
from .diagram import (
    RegionVector,
    independent,
    periodic_domains,
    provincially_admissible,
)
from .pairing import PairingConfig, box_left, box_right, homology_rank
from .solid_torus import build_cfa, build_cfa_framed, build_cfa_infinity, parse_slope
from .structures import (
    AGenerator,
    AModule,
    ChainComplexF2,
    CheckReport,
    DGenerator,
    DStructure,
    DDGenerator,
    DDMorphism,
    DDStructure,
    check_a,
    check_complex,
    check_d,
    check_dd,
    compose,
    d_of_morphism,
    identity_morphism,
    isomorphic,
    reduce,
    verify_homotopy,
)
from .torus_link import (
    build_cfdd_full,
    build_cfdd_simplified,
    build_equivalence,
    full_build_log,
)

__version__ = "0.1.0"
