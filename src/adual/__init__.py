"""Computing with finite affine (Abelian) algebras.

Core objects: finite algebras with named operation tables, relations,
homomorphisms and congruences.  On top of those: affine term discovery, the
subalgebra/congruence correspondence, hom-counting bounds and the groups on
diagonal-fixed homs, factorization of morphisms through bounded powers,
entailment certificates, and a desk-scale duality verifier.
"""

from .core import (
    BudgetExceededError,
    Congruence,
    DEFAULT_BUDGET,
    FiniteAlgebra,
    Homomorphism,
    Operation,
    ParseError,
    Relation,
    VerificationError,
    con_lattice,
    diagonal_relation,
    enumerate_homs,
    enumerate_subuniverses,
    full_relation,
    generated_subuniverse,
    graph_relation,
    is_compatible_relation,
    power_algebra,
    quotient_algebra,
    subuniverse_carriers,
)
from .affine import (
    AbelianGroup,
    AffineTerm,
    eval_affine_combination,
    find_affine_term,
    group_from_affine,
    ternary_term_clone,
)
from .subcong import (
    KernelTriple,
    SubalgebraWitness,
    c_of_congruence,
    kernel_quotient,
    meet_irreducibles,
    theta_of_subalgebra,
    verify_galois,
)
from .homgroups import (
    GeneratingFamily,
    HkGroup,
    PrimeSignature,
    build_hk_group,
    cardinal_si_bound,
    decompose_in_group,
    generating_family,
    hom_divisibility_check,
    kearnes_divisibility_check,
    prime_signature,
)
from .factorize import Factorization, factor_morphism
from .entailment import (
    EntailmentCertificate,
    ReductionResult,
    eliminate_t,
    reduce_to_bounded_arity,
    refute_entailment,
    replay_certificate,
    verify_certificate,
)
from .duality import (
    AlterEgo,
    DualStructure,
    EvaluationReport,
    arity_bound,
    build_alter_ego,
    double_dual,
    dual_of,
    verify_duality,
)

__version__ = "0.1.0"
