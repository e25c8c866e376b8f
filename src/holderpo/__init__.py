"""HolderPO: power-mean aggregation of importance ratios for group-relative
policy optimisation, with dynamic exponent scheduling and a numerical
verification harness."""

from holderpo.core import (
    DomainError,
    HolderOrder,
    LogRatioSequence,
    RatioSequence,
    WeightDistribution,
    entropy_p_derivative,
    gradient_weights,
    hhi,
    holder_mean,
    holder_mean_masked,
    limit_weights,
    mu_p_derivative,
    shannon_entropy,
    weight_p_derivative,
)
from holderpo.objectives import (
    ClipConfig,
    GradientEstimate,
    RolloutBatch,
    advantage_estimates,
    grad_estimator_seq_clip,
    grad_estimator_token_clip,
    grad_estimator_unclipped,
    grad_rho,
    second_moment_orthogonal,
    surrogate_seq_clip,
    surrogate_token_clip,
    surrogate_unclipped,
    variance_bound_term,
)
from holderpo.analysis import UpdateMetrics, ratio_envelopes, table_to_csv
from holderpo.schedule import ScheduleSpec, p_at
from holderpo.sim import (
    DivergenceError,
    PolicyParams,
    RunLog,
    TaskSpec,
    TrainConfig,
    default_dense_task,
    default_sparse_task,
    refresh_logprobs,
    sample_group,
    success_probability,
    train,
    train_many,
    trend_config,
)
from holderpo.verify import check_all

__version__ = "0.1.0"
