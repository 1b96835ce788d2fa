"""Bounded-communication multiparty games and their single-qubit counterparts.

Exact classical bound certification, coordinate-ascent strategy search,
single-qubit protocol simulation, and a heralded-photon experiment model with
reproduction-grade statistics.
"""

from .classical import (
    AscentResult,
    BruteForceResult,
    CertifiedBound,
    ClassicalBound,
    CommTree,
    GeneralProtocolA,
    OptimizeResult,
    ProductStrategyA,
    ProductStrategyB,
    brute_force_bound_a,
    certify_bound_a,
    classical_bound,
    coordinate_ascent_b,
    exhaust_product_strategies_a,
    fidelity_exact,
    fidelity_mc,
    half_split_strategy_b,
    optimize_strategy_b,
    product_strategy_a_from_index,
    random_strategy_b,
    run_protocol,
)
from .experiment import (
    PRESETS,
    ExperimentParams,
    Runs,
    WindowChoice,
    experimental_fidelity,
    gamma_from_visibility,
    optimize_window,
    predicted_success,
    simulate_experiment,
    simulate_run,
    stream_runs,
    visibility_from_gamma,
)
from .quantum import (
    exact_outcome_a,
    final_state,
    measure_probabilities,
    plus_probability,
    quantum_fidelity,
    run_quantum,
    run_quantum_batch,
)
from .sampling import (
    RandomStream,
    enumerate_a,
    sample_a,
    sample_b,
    sample_inputs,
)
from .stats import (
    Histogram,
    SuccessStats,
    binomial_probability,
    block_fractions,
    block_histogram,
    sigma_violation,
    success_stats,
    wilson_interval,
)
from .tasks import (
    CosineTieError,
    PromiseViolationError,
    Task,
    check_domain,
    coherence,
    compose,
    decompose_batch,
    density_b,
    reduced_density,
    task_value,
    task_value_batch,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
