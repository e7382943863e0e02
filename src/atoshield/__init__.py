"""Shielded reinforcement-learning control for automatic train operation."""

from .dynamics import (
    Condition,
    OperationState,
    RewardWeights,
    StepOutcome,
    TrackSection,
    TrainModel,
    davis_resistance_accel,
    grade_accel,
    limit_at,
    motor_accel,
    reward_terms,
    step,
    validate_model,
    validate_track,
)
from .search_tree import SearchConfig, SearchTree, backup, build_tree, prune, select_safe_action
from .shield import (
    Label,
    Rule,
    SafetySpec,
    ShieldVerdict,
    UnrecoverableStateError,
    is_safe,
    label,
    safe_action_set,
    shield_filter,
)
from .trainer import EpisodeMetrics, RunConfig, execute, noise_test, pcc, robustness_run, train

__version__ = "0.1.0"
