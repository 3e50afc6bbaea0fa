"""hopfkit: exact kernel for PBW-type presentations with candidate Hopf structures."""

from .errors import HopfkitError
from .freealg import Alphabet, FreeElement, Generator, free_add, free_mul, word_weight
from .pbw import (
    PBWElement,
    Presentation,
    Relation,
    commutator,
    confluence_check,
    enumerate_basis,
    normal_form,
    validate_presentation,
)
from .hopf import (
    AntipodeTable,
    Tensor3Element,
    TensorElement,
    antipode,
    check_coassociativity,
    check_counit,
    check_involutive_antipode,
    check_relation_compatibility,
    coproduct,
    counit,
    drop_correction,
    is_primitive,
    reduced_coproduct,
    solve_antipode,
    tensor,
)
from .grading import (
    ExponentSequence,
    PowerSeries,
    associated_graded,
    factor_series,
    gk_dimension,
    hilbert_series,
    hopf_obstruction,
    is_commutative,
)
from .subspace import (
    MonomialIndex,
    Subspace,
    coradical_levels,
    member,
    power_ideal_span,
    primitive_space,
    signature,
    span,
    truncation_algebra,
)
from .presfile import (
    BUILTIN_NAMES,
    builtin,
    dump_presentation,
    load_presentation,
    parse_expression,
    parse_presentation,
)

__version__ = "0.1.0"
