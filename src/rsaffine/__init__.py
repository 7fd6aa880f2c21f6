"""Exact computational kernel for two-parameter affine quantum algebras.

Everything is computed over the exact rational-function field Q(r, s, a, b)
with lattice exponents; there is no floating point anywhere.
"""

from .cartan import AffineType, PairingTable, build_pairing, pairing, parse_type, weight_pairing
from .field import (
    LATTICE,
    A,
    B,
    ONE,
    R,
    S,
    ZERO,
    RatFunc,
    gauss_binom,
    parse,
    quantum_int,
    render,
)
from .matrix import Matrix
from .rep_core import (
    MatrixModule,
    RelationReport,
    all_pass,
    apply_word,
    check_chevalley,
    check_drinfeld,
)
from .sl2 import build_chevalley_eval, build_current_eval, build_series_eval
from .drinfeld import (
    DrinfeldPoly,
    HwSeries,
    closed_form_P,
    extract_hw_series,
    reconstruct_P,
    verify_RQ_form,
    weight_gamma_series,
)
from .hopf import span_closure, tensor, twist_sigma
from .specialize import SpecMap, specialize_module, substitute_module

__version__ = "0.1.0"
