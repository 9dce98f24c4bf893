"""Finite-dimensional quantum logic and measurement toolkit.

Layers, bottom up: tolerance-aware linear algebra (``numlin``), the
projection lattice (``lattice``), spectral calculus for observables
(``spectral``), a small formula language (``qlang``), truth-value
semantics (``qlogic``), indirect measurement models with certification
and witness search (``measure``), and a command-line surface (``cli``).
Stock matrices and seeded generators live in ``standard``.
"""

from .errors import (
    DimMismatchError,
    EmptyFamilyError,
    NonFiniteLabelError,
    NotHermitianError,
    NotSquareError,
    NotUnitaryError,
    ParseError,
    QrealError,
    UnboundObservableError,
    UnmappedEigenvalueError,
)
from .lattice import (
    Projection,
    biconditional,
    com_family,
    com_pair,
    complement,
    join,
    meet,
    sasaki,
)
from .measure import (
    ContextReport,
    CorrelationCertificate,
    MeasurementModel,
    RestartTelemetry,
    SearchResult,
    SimultaneousReport,
    UncertaintyReport,
    context_report,
    kd_distribution,
    measures_in_state,
    meter_output,
    output_distribution,
    povm,
    rms_disturbance,
    rms_noise,
    search_simultaneous,
    simultaneously_measures,
    uncertainty_report,
)
from .numlin import DEFAULT_TOL, ToleranceConfig, kron, probe_compress
from .qlang import (
    And,
    Atom,
    Com,
    Equal,
    Formula,
    Iff,
    Not,
    Or,
    Sasaki,
    observable_ids,
    parse,
    unparse,
)
from .qlogic import (
    Environment,
    TruthReport,
    holds_in,
    jointly_determinate,
    jpd_exists,
    nowhere_commuting,
    perfectly_correlated,
    truth_projection,
    value_identity,
)
from .spectral import (
    Observable,
    SpectralFamily,
    apply_value_map,
    born_distribution,
    spectral_family,
    spectral_projection,
)
from .standard import (
    CNOT,
    HADAMARD,
    KET_MINUS,
    KET_MINUS_I,
    KET_PLUS,
    KET_PLUS_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    basis_state,
    random_hermitian,
    random_projection_matrix,
    random_state,
    random_unitary,
)

__version__ = "0.1.0"

__all__ = [
    "QrealError", "NotSquareError", "NotHermitianError", "NotUnitaryError",
    "DimMismatchError", "EmptyFamilyError",
    "UnboundObservableError", "UnmappedEigenvalueError", "NonFiniteLabelError", "ParseError",
    "ToleranceConfig", "DEFAULT_TOL", "kron", "probe_compress",
    "Projection", "complement", "meet", "join", "sasaki", "biconditional",
    "com_pair", "com_family",
    "Observable", "SpectralFamily", "spectral_family", "spectral_projection",
    "apply_value_map", "born_distribution",
    "PAULI_X", "PAULI_Y", "PAULI_Z", "HADAMARD", "CNOT",
    "KET_PLUS", "KET_MINUS", "KET_PLUS_I", "KET_MINUS_I",
    "basis_state", "random_state", "random_hermitian", "random_unitary",
    "random_projection_matrix",
    "Formula", "Atom", "Not", "And", "Or", "Sasaki", "Iff", "Equal", "Com",
    "parse", "unparse", "observable_ids",
    "Environment", "TruthReport", "truth_projection", "holds_in",
    "value_identity", "perfectly_correlated", "jointly_determinate",
    "nowhere_commuting", "jpd_exists",
    "MeasurementModel", "CorrelationCertificate", "UncertaintyReport",
    "SimultaneousReport", "ContextReport", "SearchResult", "RestartTelemetry",
    "meter_output", "povm", "output_distribution", "measures_in_state",
    "rms_noise", "rms_disturbance", "uncertainty_report",
    "simultaneously_measures", "search_simultaneous", "kd_distribution", "context_report",
    "__version__",
]
