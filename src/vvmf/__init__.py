"""Exact arithmetic for vector-valued elliptic modular forms.

Cyclotomic coefficient arithmetic, congruence types of the modular group,
coset Hecke operators at finite places and at infinity, and the
multivalued product of forms, with a verification harness on the CLI.
"""

from .exactnum import CycNum, bernoulli
from .linalg import Matrix, Subspace
from .qexp import InsufficientPrecision, QExp, slash_expand
from .reps import Rep, RepRegistry, builtin_registry, decompose, hom_space
from .ahol import AholForm, ahol_decompose, lower_op, raise_op
from .hecke import (
    DeltaCoset,
    HeckeRep,
    cocycle,
    delta_cosets,
    hecke_form,
    hecke_rep,
    pairing_tm,
    pi_M,
    reduce_to_coset,
    unit_embedding,
)
from .hyperalg import (
    FormSpan, hyper_tensor, span_contains, span_sum, sturm_bound, tinf, tinf_closure,
)
from .forms import check_T_consistency, delta_form, eisenstein, vv_eisenstein

__version__ = "0.1.0"

__all__ = [
    "AholForm",
    "CycNum",
    "DeltaCoset",
    "FormSpan",
    "HeckeRep",
    "InsufficientPrecision",
    "Matrix",
    "QExp",
    "Rep",
    "RepRegistry",
    "Subspace",
    "ahol_decompose",
    "bernoulli",
    "builtin_registry",
    "check_T_consistency",
    "cocycle",
    "decompose",
    "delta_cosets",
    "delta_form",
    "eisenstein",
    "hecke_form",
    "hecke_rep",
    "hom_space",
    "hyper_tensor",
    "lower_op",
    "pairing_tm",
    "pi_M",
    "raise_op",
    "reduce_to_coset",
    "slash_expand",
    "span_contains",
    "span_sum",
    "sturm_bound",
    "tinf",
    "tinf_closure",
    "unit_embedding",
    "vv_eisenstein",
]
