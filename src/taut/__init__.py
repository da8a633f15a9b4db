"""Exact computation in the golden ratio Thompson groups and their lifts.

Arithmetic is carried out in Z[tau], tau = (sqrt(5)-1)/2, so every group
operation, rotation number certificate and stable commutator length in
this package is exact or comes with a sound rational enclosure.
"""

from .circle import CircleMap
from .construct import (
    CommutatorCertificate,
    DefectWitness,
    FactorCertificate,
    TransitivityCertificate,
    commutator_trick,
    connect_tuple,
    connect_tuple_derived,
    defect_witness,
    defect_witness_search,
    factor_local,
    match_intervals,
    random_element,
)
from .errors import TautError, ValidationError
from .expr import deserialize, evaluate_str, serialize, to_expression
from .lift import (
    LiftMap,
    RotEnclosure,
    RotRational,
    RotTranslation,
    SclResult,
    defect_delta,
    rot,
    rot_enclosure,
    scl,
    verify_rot,
)
from .plmap import (
    PLMap,
    commutator,
    conjugate,
    is_ftau,
    is_ftau_compact,
    is_supported_in,
    power,
)
from .ring import QTau, TAU, ZTau, is_tau_power, parse_qtau, parse_ztau, tau_pow

__version__ = "0.1.0"
