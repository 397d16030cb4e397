"""torspec: exact spectral toolkit for exotic multiplier operators on the torus.

Fields are finite Fourier series over the integer lattice (dimensions 1 and
2), cutoffs are smooth radial plateaus, symbols are finite separable sums,
and the operator machinery makes dyadic frequency-modulation limits,
paradifferential splits and spectral support transport decidable at desk
scale.
"""

from .constructions import (
    ball_carrier,
    harmonic_ratio,
    harmonic_ratio_bracket,
    lacunary_field,
    random_band_limited,
    vanishing_family,
    weierstrass_field,
)
from .cutoffs import (
    CutoffProfile,
    LPFamily,
    default_families,
    lp_project,
    make_cutoff,
    modulate,
    telescope_check,
)
from .errors import (
    BadRadii,
    BadRange,
    BandwidthViolation,
    BudgetExceeded,
    DimensionMismatch,
    DimensionUnsupported,
    EmptySpectrum,
    FNotVanishingAtZero,
    FrequencyOutOfRange,
    NonRealInput,
    RangeTooLarge,
    TorspecError,
    WindowTooLarge,
    ZeroDirection,
)
from .fields import (
    DenseField,
    Frequency,
    SparseField,
    delta_field,
    dense_to_sparse,
    inner_product,
    pointwise_mul,
    sparse_to_dense,
    zero_field,
)
from .norms import besov_norm, cone_report, hsp_norm, lp_norm, sobolev_norm
from .operator import (
    ModulationDiagnostic,
    adjoint_apply_ching,
    apply,
    apply_modulated,
    apply_with_support,
    corona_check,
    kernel_pairing_1d,
    norm_ratio_probe,
    paradiff_split,
    pi_product,
    spatial_kernel_1d,
    spectral_kernel,
    support_rule_xi,
    vanishing_limit,
)
from .symbols import (
    ChingData,
    RadialBump,
    SeparableSymbol,
    ching_symbol,
    class_verify,
    dyadic_blocks,
    identity_symbol,
    meyer_apply,
    meyer_symbol,
    multiplication_symbol,
    symbol_modulate,
    twisted_diagonal_check,
)

__version__ = "0.1.0"
