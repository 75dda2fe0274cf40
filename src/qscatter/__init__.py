"""qscatter: entanglement through complex scattering channels.

Simulation and analysis toolkit for two-photon experiments behind a
multimode scattering medium: channel models and their state isomorphism,
phase-stepping transmission-matrix reconstruction, one-sided unscrambling
with projective measurements only, and Schmidt-number certification from
coincidence tables.
"""

from .bases import (
    BasisFamily,
    check_lambdas,
    mub,
    parse_basis_spec,
    rotate_matrix,
    standard_family,
    tilted,
)
from .certify import (
    CertificationReport,
    TargetState,
    estimate_lambda,
    fidelity_exact,
    fidelity_lower_bound,
)
from .channel import (
    ChannelModel,
    EffectiveT,
    choi_state,
    compose_two_channels,
    drop_reference,
    effective_t,
    haar_channel,
    load_channel,
    load_fixture_lambda,
    load_fixture_tm0,
    save_channel,
    transmitted_state,
)
from .cli import ScenarioConfig, main, run_scenario
from .errors import (
    CertificationFailure,
    ConditioningError,
    ConfigError,
    DegenerateReferenceError,
    DimensionMismatchError,
    FormatError,
    InvalidDimensionError,
    NormalizationError,
    TagConflictError,
    ToolkitError,
    UnsupportedDimensionError,
)
from .measure import (
    NOISELESS,
    THETA_GRID,
    CountTable,
    load_count_table,
    measure_correlations,
    phase_step_scan_e,
    phase_step_scan_s,
    probability_table,
    sample_counts,
    save_count_table,
    zeta_correct,
)
from .numerics import (
    dag,
    dist_up_to_scalar,
    haar_isometry,
    haar_unitary,
    is_isometry,
    is_prime,
    is_unitary,
    load_matrix_csv,
    save_matrix_csv,
    substream,
)
from .states import (
    BipartiteState,
    apply_one_sided,
    make_state,
    max_entangled,
    project,
    weighted_source,
)
from .tomo import Reconstruction, reconstruct
from .unscramble import (
    UnscrambleOperators,
    VOperator,
    build_v,
    build_w,
    measure_recovered,
    predict_table,
    recovered_probs,
    slm_eta,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
