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
    expectation,
    make_cluster,
    make_ghz,
    stabilizer_projector_expectation,
    white_noise_mix,
)
from .families import (
    FAMILIES,
    Family,
    get_family,
)
from .measurement import (
    CountsTable,
    MeasurementSetting,
    WitnessEstimate,
    draw_counts,
    estimate_witness,
    outcome_distribution,
    sample_outcomes,
    settings_for,
    stabilizer_distributions,
)
from .witnesses import (
    ThresholdReport,
    Witness,
    build_witness,
    noise_threshold,
    noisy_target_expectation,
    target_state,
)
from .bisep import (
    Bipartition,
    BisepReport,
    CutResult,
    certify,
    enumerate_bipartitions,
    min_over_cut,
)

__all__ = [name for name in dir() if not name.startswith("_")]
