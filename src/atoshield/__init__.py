"""Shielded reinforcement-learning control for automatic train operation."""

from .dynamics import (
    OperationState,
    RewardWeights,
    StepOutcome,
    TrackSection,
    TrainModel,
    davis_resistance_accel,
    step,
    validate_model,
    validate_track,
)
from .search_tree import SearchConfig, SearchTree, backup, build_tree, prune, select_safe_action
from .shield import (
    Rule,
    SafetySpec,
    ShieldVerdict,
    UnrecoverableStateError,
    is_safe,
    safe_action_set,
    shield_filter,
)
from .trainer import EpisodeMetrics, RunConfig, execute, noise_test, pcc, robustness_run, train

__version__ = "0.1.0"
