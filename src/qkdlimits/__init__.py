"""Fundamental limits on QBER and distance for qubit-based QKD.

Pure-function library: Pauli channel capacity verdicts, per-basis QBER
thresholds, detector/source QBER models, link transmissivities, maximum
secure distances, repeater-chain bounds and an intercept-resend attack
oracle, plus a scenario-driven CLI (``qkdlimits --help``).
"""

__version__ = "0.1.0"

from .attack import (
    AttackConfig,
    intercept_resend_qber_analytic,
    intercept_resend_qber_montecarlo,
    pauli_channel_qber_montecarlo,
)
from .detection import (
    Attenuated,
    Decoy,
    DetectorModel,
    QberBreakdown,
    SinglePhoton,
    SourceModel,
    best_case_intensity,
    decoy_expected_qber,
    detection_probability,
    k_photon_transmissivity,
    qber_attenuated,
    qber_k_photon,
)
from .distance import (
    DistanceBound,
    GammaThreshold,
    OmegaValue,
    SweepRow,
    dark_count_sweep,
    gamma_threshold,
    max_diffraction_distance,
    max_distance_batch,
    max_distance_numeric,
    max_fiber_distance,
    omega,
)
from .errors import (
    BracketError,
    InconsistentQberError,
    InfeasibleConfigurationError,
    NonMonotonicModelError,
    NumericError,
    QkdLimitError,
    UndefinedQberError,
    ValidationError,
)
from .links import (
    BeamGeometry,
    FiberLink,
    GroundAtmosphere,
    SatellitePath,
    atmospheric_transmissivity,
    beam_spot_size,
    diffraction_transmissivity,
    fiber_transmissivity,
    satellite_slant_distance_km,
    satellite_transmissivity,
)
from .pauli import (
    BELL_PROJECTORS,
    PAULI_MATRICES,
    CapacityVerdict,
    ChoiState,
    PauliDistribution,
    QubitState,
    apply_channel,
    binary_entropy,
    capacity_verdict,
    choi_state,
    depolarizing,
    partial_transpose,
    symmetric_eigenvalues,
)
from .qber import (
    QberSet,
    SecurityVerdict,
    pauli_from_qbers,
    pauli_from_qbers_2mub_worstcase,
    pauli_from_qbers_3mub,
    qbers_from_pauli,
    security_verdict,
    symmetric_threshold,
)
from .repeater import (
    ChainQberVerdict,
    ChainSpec,
    ChainVerdict,
    chain_qber_verdict,
    chain_verdict,
)
from .scenario import (
    ResultRecord,
    Scenario,
    ScenarioLink,
    parse_scenario,
    result_record_schema,
    run_scenario,
    scenario_from_file,
    sweep_scenario,
)
