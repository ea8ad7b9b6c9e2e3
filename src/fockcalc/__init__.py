"""Exact symbolic Heisenberg/Virasoro calculus on the Fock space built from a
graded Frobenius algebra, with a symmetric-group class-algebra oracle.

The Fock space is the free module spanned by colored-partition monomials
q_{i_1}(c_1)...q_{i_k}(c_k)|0>, colors running over the basis of a surface-like
algebra.  Creation/annihilation operators, Virasoro operators, the boundary
derivation, adjoints, and the two families of generator classes are all
evaluated exactly over the rationals.
"""

from ._rat import Rat
from .errors import (
    AxiomViolation,
    CapExceeded,
    DegreeError,
    DomainError,
    FockcalcError,
    InvalidPart,
    MixedDegree,
    OracleMissing,
    ParseError,
    SingularGram,
    SingularPairing,
    TruncationExceeded,
    UnknownBasisId,
)
from .surface import (
    AlgebraElement,
    BasisClass,
    PRESETS,
    SurfaceAlgebra,
    diagonal_pushforward,
    dual_basis,
    euler_class,
    integral,
    load_algebra,
    load_preset,
    mul,
    parse_element,
)
from .fock import (
    FockVector,
    bidegree,
    canonicalize,
    fh_support_bound,
    inner_product,
    max_weight,
    monomial_basis,
    render_vector,
    set_max_weight,
)
from .operators import (
    LinearOperator,
    Report,
    adjoint_matrix,
    boundary_d,
    derivative,
    gram_matrix,
    identity_operator,
    operator_matrix,
    q,
    supercommutator,
    verify_relations,
    virasoro,
    zero_operator,
)
from .generators import (
    FiltrationReport,
    GeneratorClass,
    apply_formal_g,
    b_class,
    default_bracket_oracle,
    filtration_compare,
    g_class,
    commutator_expand,
    q1_kth_bracket,
    vacuum_unit,
    nested_bracket_check,
)
from .class_algebra import (
    CentralElement,
    GenerationReport,
    b_analog,
    class_product,
    class_size,
    fh_degree,
    generation_closure,
    partition_count,
    partitions_of,
)

__version__ = "0.1.0"
