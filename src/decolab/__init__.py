"""decolab: short-time decoherence rates of spatially correlated qubits.

A dense-matrix library plus CLI for the quadratic damping coefficients of the
input-output, entanglement and ensemble-average fidelities, the factorized
spatial-correlation form of those rates, regime classification (independent
vs collective decoherence), subdecoherent pair encoding, and an exact
unitary-evolution oracle that validates every closed form.
"""

from .errors import ConfigError, ConvergenceError
from .fidelity import (
    Ensemble,
    RateInequalityReport,
    average_c2,
    check_rate_inequality,
    entanglement_c2,
    input_output_c2,
)
from .model import (
    BathMode,
    BathModeSet,
    ModelHamiltonian,
    QubitLattice,
    build_hamiltonian,
    correlation_fn_discrete,
    decoherence_rate,
    pair_encode,
    pair_rate,
    qubit_coupling_op,
    rate_from_correlation,
)
from .operators import (
    DenseOperator,
    HilbertSpace,
    Ket,
    boson_ops,
    embed,
    herm_propagator,
    kron,
    n_max_for_tail,
    partial_trace,
    pauli,
    purify,
    thermal_boson_state,
    variance_form,
)
from .oracle import (
    ExpansionEstimate,
    FidelityCurve,
    Scenario,
    VerifyReport,
    estimate_c2,
    evolve_exact,
    fidelity_curve,
    verify_expansion,
)
from .spectral import (
    GaussianSpectrum,
    OhmicBath,
    RegimeReport,
    classify_regime,
    gaussian_correlation,
    ohmic_correlation_highT,
    ohmic_correlation_lowT,
    ohmic_correlation_quad,
    ohmic_spectrum_moments,
    spectrum_moments,
)

__version__ = "0.1.0"
