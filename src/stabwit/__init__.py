"""Two-setting stabilizer witnesses for GHZ and linear cluster states."""

__version__ = "0.1.0"

from .errors import (
    ContractError,
    DimensionError,
    DomainError,
    NumericError,
    StabwitError,
)
from .pauli import (
    GeneratorSet,
    PauliString,
    cluster_generators,
    generators_for,
    ghz_generators,
    subgroup_product,
)
from .states import (
    NoisyState,
    StateVector,
    apply_pauli,
    expectation,
    make_cluster,
    make_ghz,
    schmidt_coefficients,
    stabilizer_projector_expectation,
    white_noise_mix,
)
from .families import (
    FAMILIES,
    FAMILY_CLUSTER,
    FAMILY_GHZ,
    Family,
    get_family,
)
from .measurement import (
    CountsTable,
    MeasurementSetting,
    WitnessEstimate,
    correlation_from_counts,
    draw_counts,
    estimate_from_distributions,
    estimate_witness,
    outcome_distribution,
    sample_outcomes,
    setting_distributions,
    settings_for,
)
from .witnesses import (
    ThresholdReport,
    Witness,
    build_witness,
    noise_threshold,
    noisy_target_expectation,
    settings_count,
    target_state,
)
from .bisep import (
    Bipartition,
    BisepReport,
    CutResult,
    certify,
    enumerate_bipartitions,
    min_over_cut,
    product_state,
)

__all__ = [name for name in dir() if not name.startswith("_")]
