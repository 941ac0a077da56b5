"""Training-free dynamic weight interpolation on a synthetic shift benchmark.

Per-sample interpolation coefficients from prediction entropies, mixture-model
compression of the coefficient distribution, dynamic merging strategies, and
the orchestration to evaluate all of it reproducibly.
"""

from .classifier import (
    MlpArchitecture,
    TrainConfig,
    blended_forward,
    calibrate_temperature,
    forward_batch,
    logits_batch,
    train,
)
from .databench import (
    BenchmarkSuite,
    Domain,
    SuiteSpec,
    TaskSplit,
    apply_shift,
    generate,
    load_domain,
    load_suite,
    rotation_matrix,
    save_domain,
    save_suite,
)
from .errors import (
    CheckpointFormatError,
    DataFormatError,
    DawinError,
    DegenerateDomainError,
    IncompatibleModelsError,
    InsufficientSamplesError,
    UndefinedOracleError,
)
from .expertise import (
    CoefficientBatch,
    Split,
    coeff_multi,
    coeff_pair,
    coeff_pair_offset,
    domain_offset,
    entropy,
    load_coefficients,
    oracle_coeff,
    pearson_r,
    pseudo_label_coeff,
    ratio_correlation,
    save_coefficients,
    split_masks,
    xentropy,
)
from .harness import (
    EvalReport,
    ExpertSet,
    PropertyCheck,
    build_experts,
    emit_report,
    failed_checks,
    load_report,
    run_analysis,
    run_main,
    run_pilot,
    run_property_suite,
)
from .merge import (
    DEFAULT_GRID,
    ForwardCache,
    MergeOptions,
    MergeStrategy,
    StrategyResult,
    accuracy,
    dawin_clustered_eval,
    dawin_sample_eval,
    dawin_task_arith_eval,
    dcs_eval,
    doe_eval,
    greedy_soup,
    model_eval,
    oracle_domain_search,
    oracle_sample_eval,
    static_eval,
    uniform_soup,
    wise_sweep,
)
from .mixture import (
    BetaMixtureModel,
    DirichletMixtureModel,
    dirichlet_em_fit,
    em_fit,
    infer_membership,
    load_mixture,
    save_mixture,
)
from .params import (
    Checkpoint,
    ParamVector,
    TaskVector,
    combine_task_vectors,
    interpolate_pair,
    load_checkpoint,
    make_task_vector,
    save_checkpoint,
)

__version__ = "0.1.0"
