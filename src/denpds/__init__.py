"""Generalized two-family difference sets over finite-field towers.

Construction of the primal and dual set families in elementary abelian
groups, with exact desk-scale certification of everything derived from
them: strongly regular Cayley graphs, character spectra, maximum cliques,
Delsarte duals and complements, projective two-intersection sets, and
projective two-weight codes.
"""

from .construct import PdsSet, Subspace, Tower, TowerParams, dual_subspace
from .errors import DenpdsError
from .ff import FiniteField, SubfieldEmbedding, build_field, embed
from .params import (
    SrgParams,
    classify_type,
    code_params,
    complement_params,
    delsarte_dual_params,
    denniston_params,
    dual_denniston_params,
    projective_params,
)

__version__ = "1.0.0"

__all__ = [
    "DenpdsError",
    "FiniteField",
    "PdsSet",
    "SrgParams",
    "Subspace",
    "SubfieldEmbedding",
    "Tower",
    "TowerParams",
    "build_field",
    "classify_type",
    "code_params",
    "complement_params",
    "delsarte_dual_params",
    "denniston_params",
    "dual_denniston_params",
    "dual_subspace",
    "embed",
    "projective_params",
    "__version__",
]
