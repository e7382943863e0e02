"""Scenario configuration: one YAML file defines a whole experiment.

The file has seven blocks (train, track, safety, reward, agent, search, run),
each mapping onto one runtime dataclass.  Validation is all-at-once: every
violated invariant is reported with its field path, and unknown keys are
rejected rather than ignored.  Each field's type comes from its annotation:
a value of the wrong type (a string, a bool, a NaN or an infinity where a
number belongs, a fraction where an integer belongs, a number where
true/false belongs) is reported, and a block holding one is not checked
against its invariants, nor is any check that reads that block.  The
episode step budget a scenario resolves to is held to
``trainer.MAX_STEP_BUDGET``.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import typing
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import yaml

from .dynamics import (
    OperationState, RewardWeights, TrackSection, TrainModel, step, validate_model, validate_track,
)
from .drl.agents import AgentConfig
from .search_tree import SearchConfig
from .shield import SafetySpec, default_terminal_zone, floor_applies
from .trainer import MAX_STEP_BUDGET, VARIANTS, RunConfig


class ConfigError(ValueError):
    """Carries the full list of validation failures for one config file."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("invalid scenario config:\n" + "\n".join(f"  - {e}" for e in errors))


@dataclass
class ScenarioConfig:
    train: TrainModel
    track: TrackSection
    safety: SafetySpec
    reward: RewardWeights
    agent: AgentConfig
    search: SearchConfig
    run: RunConfig


_FIELD_MAP = typing.get_type_hints(ScenarioConfig)


def default_scenario_path() -> Path:
    """Filesystem path of the bundled synthetic section."""
    return Path(resources.files("atoshield").joinpath("data/default.yaml"))


def _is_number(value) -> bool:
    """A finite YAML int or float: ``True``, ``.nan``, ``.inf`` and an integer
    too large for a float are not numbers here (NaN fails the comparison)."""
    is_real = isinstance(value, (int, float)) and not isinstance(value, bool)
    return is_real and abs(value) <= sys.float_info.max


def _is_int(value) -> bool:
    """A YAML integer: ``True`` and ``16.5`` are not layer widths or counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_segment(value) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 3 and all(map(_is_number, value))


# The type of a config field, by its annotation (a string, as every config
# module defers them) without a trailing ``| None``, which admits None: what a
# value must satisfy and how an error names it.  A ``tuple[...]`` field holds
# a list, and its predicate and words are for each element.
_KINDS = {
    "float": (_is_number, "a finite number"),
    "int": (_is_int, "an integer"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[int, ...]": (_is_int, "an integer"),
    "tuple[tuple[float, float, float], ...]":
        (_is_segment, "three finite numbers [start, end, value]"),
}


def _type_errors(path: str, field: dataclasses.Field, value) -> list[str]:
    """Why ``value`` has the wrong type for ``field``, one line per fault."""
    kind = field.type.removesuffix(" | None")
    if value is None and kind != field.type:
        return []
    accepts, words = _KINDS[kind]
    if not kind.startswith("tuple["):
        return [] if accepts(value) else [f"{path}: expected {words}, got {value!r}"]
    if not isinstance(value, (list, tuple)):
        return [f"{path}: expected a list, got {value!r}"]
    return [f"{path}[{i}]: expected {words}, got {v!r}" for i, v in enumerate(value) if not accepts(v)]


def _coerce_block(name: str, cls, raw: dict, errors: list[str]):
    """The block's dataclass from its raw mapping, or None when a value has
    the wrong type or the constructor rejects it."""
    known = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    mistyped = False
    for key, value in raw.items():
        if key not in known:
            errors.append(f"{name}.{key}: unknown key")
            continue
        problems = _type_errors(f"{name}.{key}", known[key], value)
        errors += problems
        mistyped = mistyped or bool(problems)
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        kwargs[key] = value
    if mistyped:
        return None
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        errors.append(f"{name}: {exc}")
        return None


def _validate_safety(spec: SafetySpec, model: TrainModel, track: TrackSection) -> list[str]:
    errors = []
    if spec.min_speed < 0.0:
        errors.append("safety.min_speed: must be >= 0")
    if spec.terminal_zone < 0.0:
        errors.append("safety.terminal_zone: must be >= 0")
    elif spec.terminal_zone >= track.length:
        errors.append("safety.terminal_zone: must be smaller than the track length")
    if errors:
        return errors
    # where the floor applies, a segment must leave speeds above the floor
    # and at or below its limit
    low = next(((i, seg) for i, seg in enumerate(track.limit_segments)
                if seg[0] < track.length - spec.terminal_zone and seg[2] <= spec.min_speed), None)
    if spec.enforce_min_speed and low:
        i, (start, end, limit) = low
        return [f"safety.min_speed: {spec.min_speed} km/h is not below the {limit} km/h limit "
                f"of track.limit_segments[{i}] ({start}-{end} m), where the floor applies"]
    # the shield's floor test on the fastest first interval: when even full
    # traction from standstill breaks the floor, no first command is safe
    out = step(model, track, OperationState(), 1.0)
    nxt = out.next_state
    if not out.arrived and floor_applies(spec, track, nxt.loc) and nxt.vel <= spec.min_speed:
        errors.append(f"safety.min_speed: full traction from standstill reaches only "
                      f"{nxt.vel:.2f} km/h in one interval, not above the floor")
    return errors


def _validate_agent(agent: AgentConfig) -> list[str]:
    errors = []
    for name in ("actor_lr", "critic_lr", "sac_value_lr", "sac_softq_lr"):
        if getattr(agent, name) <= 0.0:
            errors.append(f"agent.{name}: must be > 0")
    if agent.additional_actor_lr is not None and agent.additional_actor_lr <= 0.0:
        errors.append("agent.additional_actor_lr: must be > 0")
    if not 0.0 < agent.gamma <= 1.0:
        errors.append("agent.gamma: must be in (0, 1]")
    if not 0.0 < agent.soft_tau <= 1.0:
        errors.append("agent.soft_tau: must be in (0, 1]")
    if agent.entropy_alpha < 0.0:
        errors.append("agent.entropy_alpha: must be >= 0")
    if agent.convergence_eps <= 0.0:
        errors.append("agent.convergence_eps: must be > 0")
    if agent.noise_kind not in ("ou", "gaussian"):
        errors.append("agent.noise_kind: must be 'ou' or 'gaussian'")
    if agent.elite_minibatch < 1:
        errors.append("agent.elite_minibatch: must be >= 1")
    if agent.elite_capacity < agent.elite_minibatch:
        errors.append("agent.elite_capacity: must be >= elite_minibatch")
    if agent.batch_size < 1:
        errors.append("agent.batch_size: must be >= 1")
    if agent.replay_capacity < agent.batch_size:
        errors.append("agent.replay_capacity: must be >= batch_size")
    if agent.additional_updates_per_episode < 0:
        errors.append("agent.additional_updates_per_episode: must be >= 0")
    if not agent.hidden_sizes or min(agent.hidden_sizes) < 1:
        errors.append("agent.hidden_sizes: need at least one layer width, each >= 1")
    if agent.additional_hidden_sizes and min(agent.additional_hidden_sizes) < 1:
        errors.append("agent.additional_hidden_sizes: every layer width must be >= 1")
    return errors


def _validate_search(search: SearchConfig) -> list[str]:
    errors = []
    if search.expansion_width < 1:
        errors.append("search.expansion_width: must be >= 1")
    if not 0.0 < search.backup_discount <= 1.0:
        errors.append("search.backup_discount: must be in (0, 1]")
    if search.action_grid < 2:
        errors.append("search.action_grid: must be >= 2")
    return errors


def _validate_run(run: RunConfig) -> list[str]:
    errors = []
    for name in ("max_episodes", "t_up", "step_budget", "execution_episodes"):
        value = getattr(run, name)
        if value is not None and value < 1:
            errors.append(f"run.{name}: must be >= 1")
    if not run.seeds:
        errors.append("run.seeds: need at least one seed")
    elif min(run.seeds) < 0:
        errors.append("run.seeds: every seed must be >= 0")
    if run.agent not in VARIANTS:
        errors.append(f"run.agent: must be one of {', '.join(VARIANTS)}")
    return errors


def _validate_budget(run: RunConfig, track: TrackSection) -> list[str]:
    """The episode step budget within ``MAX_STEP_BUDGET``, or one line
    naming the field that sets it."""
    try:
        budget = run.resolved_budget(track)
    except OverflowError:  # a track.dt so small that the default budget is infinite
        budget = math.inf
    if budget <= MAX_STEP_BUDGET:
        return []
    if run.step_budget is not None:
        return [f"run.step_budget: {budget} steps per episode exceeds the cap of "
                f"{MAX_STEP_BUDGET}"]
    return [f"track.dt: {track.dt} s gives a default budget of {budget} steps per episode "
            f"(3 x scheduled_time / dt), above the cap of {MAX_STEP_BUDGET}"]


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse and fully validate one scenario file; raises ConfigError."""
    raw = yaml.safe_load(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected a mapping of config blocks"])
    errors: list[str] = []
    for key in raw:
        if key not in _FIELD_MAP:
            errors.append(f"{key}: unknown block")
    blocks: dict[str, object] = {}
    for name, cls in _FIELD_MAP.items():
        content = raw.get(name, {}) or {}
        if not isinstance(content, dict):
            errors.append(f"{name}: expected a mapping")
            content = {}
        blocks[name] = _coerce_block(name, cls, content, errors)
    # a block that failed its type check is not checked against its
    # invariants, nor is a check that reads it; the other blocks still are
    train, track, safety = blocks["train"], blocks["track"], blocks["safety"]
    physics_errors = validate_model(train) if train else []
    if train and track:
        physics_errors += validate_track(train, track)
    errors += physics_errors
    # the safety block needs a sound train and track: its derived terminal
    # zone divides by the braking rate, and the floor check steps the train
    if train and track and safety and not physics_errors:
        if safety.terminal_zone is None:
            safety = dataclasses.replace(safety, terminal_zone=default_terminal_zone(train, track))
            blocks["safety"] = safety
        errors += _validate_safety(safety, train, track)
    for name, check in (("agent", _validate_agent), ("search", _validate_search),
                        ("run", _validate_run)):
        if blocks[name]:
            errors += check(blocks[name])
    # the budget divides by track.dt, which validate_track has checked is > 0
    if blocks["run"] and track and track.dt > 0.0:
        errors += _validate_budget(blocks["run"], track)
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(**blocks)
