"""atomlab: a finite-horizon laboratory for a prime-field group action on
atoms, support reduction, iterated-log density ideals, and pair-tower
choice-function refutations."""

from .atom_action import (
    Atom,
    AtomLeaf,
    FiniteSet,
    GroupElement,
    GroupSubspace,
    HFObject,
    HFTuple,
    act_atom,
    act_hf,
    atom,
    compose,
    fixes_at,
    from_kuratowski,
    hf_from_json,
    hf_to_json,
    leaf,
    orbit,
    pair,
    pointwise_stabilizer,
    stabilizer_in,
    to_kuratowski,
)
from .counterexample import (
    PairTower,
    RefutationReport,
    build_tower,
    refute_pcf,
    swap_effect,
)
from .errors import (
    CertificateError,
    InternalConsistencyError,
    ResourceError,
    UsageError,
    WindowExhaustedError,
)
from .fp_core import (
    Subspace,
    Vector,
    complement_within,
    in_span,
    project_prefix,
    span_of,
    unit,
    zero_vector,
)
from .supports import (
    ReductionStep,
    ReductionTrace,
    find_small_support,
    is_support,
    reduce_support_step,
)
from .thin_ideal import (
    DensityProfile,
    ExtractedStreamCert,
    FiniteSetCert,
    FiniteUnionCert,
    SpanOfFiniteCert,
    VectorStream,
    canonical_stream,
    certify_thin,
    check_span_density_bound,
    density_d_k,
    density_profile,
    extract_thin_subsequence,
    log_star_p,
)

__version__ = "0.1.0"
