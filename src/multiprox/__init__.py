"""Stochastic multi-proximal splitting with arbitrary sampling.

The package solves composite problems of the form

    minimize  f(x) + g(x) + (1/n) sum_i h_i(x)

where f is smooth, g and every h_i are accessed through proximal steps,
and each iteration touches only a sampled subset of the h_i. A federated
variant communicates sparse coordinate corrections instead of full
vectors. Closed-form contraction factors and stepsize plans accompany
both, and a benchmark harness reproduces the reference experiments.
"""

from .bench import (
    PRESETS,
    RunConfig,
    TraceRow,
    aggregate_replicates,
    default_cadence,
    emit_csv,
    exp1_sweep,
    load_config,
    preset,
    run_experiment,
    save_config,
)
from .errors import (
    ConfigurationError,
    DegenerateSample,
    HypothesisViolation,
    MultiproxError,
    NumericalDivergence,
    Unsupported,
    UnsupportedExact,
)
from .federated import (
    CommLedger,
    FedParams,
    FedRng,
    compress,
    derive_fed_params,
    fed_run,
    fed_step,
    rescale,
)
from .problems import (
    INFINITE,
    ProblemInstance,
    ProxOracle,
    SmoothOracle,
    generate_instance,
    hyperplane_ridge,
    is_infinite,
    scaled_sqnorm,
    zero_prox,
    zero_smooth,
)
from .rates import (
    RateInputs,
    StepsizePlan,
    rate_report,
    rho_n1_simple_g,
    rho_similarity,
    rho_theorem1,
    similarity_plan,
    stepsize_plans,
    uniform_minibatch_plan,
)
from .rng import generator, seed_sequence, spawn
from .sampling import (
    ExplicitSupport,
    FullBatch,
    IndependentParticipation,
    SamplingDistribution,
    SingletonWeighted,
    ThinnedView,
    UniformMinibatch,
    compressed_view,
    estimate_tilde_probs_mc,
    law_from_config,
)
from .solver import (
    Adaptive,
    Constant,
    LyapunovSpec,
    SolverParams,
    SolverState,
    conditional_expected_lyapunov,
    derive_params,
    dual_error,
    importance_plan,
    initial_state,
    lyapunov,
    make_lyapunov_spec,
    point_saga_step,
    rate_inputs_from,
    run,
    sq_dist,
    step,
)

__version__ = "0.1.0"
