"""curverl: a desk-scale lab for prompt-reweighted RL with verifiable rewards.

A synthetic prompt population is two (P, M) arrays, softmax logits and a
correct-response mask, whose pass rates and gradients are closed-form, so
reweighting schemes, their induced priors, and the training loop itself can
all be checked against exact oracles.
"""

from .passrate import DifficultyProfile, PromptPopulation, make_population
from .refdist import (
    ReferenceDistribution,
    exact_policy_distribution,
    uniform_reference,
    wasserstein1,
)
from .trainer import TrainConfig, TrainResult, run_training
from .weighting import (
    Curve,
    EntropicRisk,
    Grpo,
    IntegratedConvex,
    IntegratedProduct,
    MaxRL,
    Reinforce,
    induced_prior,
    induced_prior_numeric,
    pointwise_weight,
)

__version__ = "0.1.0"

__all__ = [
    "DifficultyProfile",
    "PromptPopulation",
    "make_population",
    "ReferenceDistribution",
    "exact_policy_distribution",
    "uniform_reference",
    "wasserstein1",
    "TrainConfig",
    "TrainResult",
    "run_training",
    "Curve",
    "EntropicRisk",
    "Grpo",
    "IntegratedConvex",
    "IntegratedProduct",
    "MaxRL",
    "Reinforce",
    "induced_prior",
    "induced_prior_numeric",
    "pointwise_weight",
    "__version__",
]
