"""Scenario configuration: one YAML file defines a whole experiment.

The file has seven blocks (train, track, safety, reward, agent, search, run),
each mapping onto one runtime dataclass.  Validation is all-at-once: every
violated invariant is reported with its field path, and unknown keys are
rejected rather than ignored.  A value of the wrong type (a string or a bool
where a number belongs, a number where true/false belongs) is reported
first, and a block holding one is not checked against its invariants.
"""

from __future__ import annotations

import dataclasses
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
from .trainer import VARIANTS, RunConfig


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


_FIELD_MAP = {
    "train": TrainModel,
    "track": TrackSection,
    "safety": SafetySpec,
    "reward": RewardWeights,
    "agent": AgentConfig,
    "search": SearchConfig,
    "run": RunConfig,
}

_LIST_FIELDS = {"limit_segments", "grade_segments", "seeds", "hidden_sizes", "additional_hidden_sizes"}

# annotations (strings, as every config module defers them) of the fields
# that hold one number
_NUMBER_TYPES = {"float", "int", "float | None", "int | None"}


def default_scenario_path() -> Path:
    """Filesystem path of the bundled synthetic section."""
    return Path(resources.files("atoshield").joinpath("data/default.yaml"))


def _is_number(value) -> bool:
    """A YAML int or float; ``True`` is not a number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _type_error(field: dataclasses.Field, value) -> str | None:
    """Why ``value`` has the wrong type for a number or flag field, if it does."""
    if value is None and field.default is None:
        return None
    if field.type in _NUMBER_TYPES and not _is_number(value):
        return f"expected a number, got {value!r}"
    if field.type == "bool" and not isinstance(value, bool):
        return f"expected true or false, got {value!r}"
    return None


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
        problem = _type_error(known[key], value)
        if problem:
            errors.append(f"{name}.{key}: {problem}")
            mistyped = True
            continue
        if key in _LIST_FIELDS and value is not None:
            if not isinstance(value, (list, tuple)):
                errors.append(f"{name}.{key}: expected a list, got {value!r}")
                continue
            value = tuple(tuple(v) if isinstance(v, (list, tuple)) else v for v in value)
            if key.endswith("_segments"):
                bad = [i for i, seg in enumerate(value)
                       if not (isinstance(seg, tuple) and len(seg) == 3 and all(map(_is_number, seg)))]
                errors += [f"{name}.{key}[{i}]: expected three numbers [start, end, value], "
                           f"got {raw[key][i]!r}" for i in bad]
                mistyped = mistyped or bool(bad)
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
    # the shield's floor test on the fastest first interval: when even full
    # traction from standstill breaks the floor, no first command is safe
    out = step(model, track, OperationState(), 1.0)
    nxt = out.next_state
    if not out.arrived and floor_applies(spec, track, nxt.loc) and nxt.vel <= spec.min_speed:
        errors.append(f"safety.min_speed: full traction from standstill reaches only "
                      f"{nxt.vel:.2f} km/h in one interval, not above the floor")
    return errors


def _is_int(value) -> bool:
    """A YAML integer: ``True`` and ``16.5`` are not layer widths or counts."""
    return isinstance(value, int) and not isinstance(value, bool)


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
    counts = ("elite_minibatch", "elite_capacity", "batch_size", "replay_capacity",
              "additional_updates_per_episode")
    ok = {name for name in counts if _is_int(getattr(agent, name))}
    errors += [f"agent.{name}: must be an integer" for name in counts if name not in ok]
    # a bound between two fields is checked only once both are integers
    if "elite_minibatch" in ok and agent.elite_minibatch < 1:
        errors.append("agent.elite_minibatch: must be >= 1")
    if {"elite_minibatch", "elite_capacity"} <= ok and agent.elite_capacity < agent.elite_minibatch:
        errors.append("agent.elite_capacity: must be >= elite_minibatch")
    if "batch_size" in ok and agent.batch_size < 1:
        errors.append("agent.batch_size: must be >= 1")
    if {"batch_size", "replay_capacity"} <= ok and agent.replay_capacity < agent.batch_size:
        errors.append("agent.replay_capacity: must be >= batch_size")
    if "additional_updates_per_episode" in ok and agent.additional_updates_per_episode < 0:
        errors.append("agent.additional_updates_per_episode: must be >= 0")
    if not agent.hidden_sizes or not all(_is_int(h) and h >= 1 for h in agent.hidden_sizes):
        errors.append("agent.hidden_sizes: need at least one layer width, each an integer >= 1")
    if agent.additional_hidden_sizes is not None and not all(
        _is_int(h) and h >= 1 for h in agent.additional_hidden_sizes
    ):
        errors.append("agent.additional_hidden_sizes: every layer width must be an integer >= 1")
    return errors


def _validate_search(search: SearchConfig) -> list[str]:
    errors = []
    if not _is_int(search.expansion_width) or search.expansion_width < 1:
        errors.append("search.expansion_width: must be an integer >= 1")
    if not 0.0 < search.backup_discount <= 1.0:
        errors.append("search.backup_discount: must be in (0, 1]")
    if not _is_int(search.action_grid) or search.action_grid < 2:
        errors.append("search.action_grid: must be an integer >= 2")
    return errors


def _validate_run(run: RunConfig) -> list[str]:
    errors = []
    for name, optional in (("max_episodes", True), ("t_up", False), ("step_budget", True),
                           ("execution_episodes", False)):
        value = getattr(run, name)
        if optional and value is None:
            continue
        if not _is_int(value) or value < 1:
            errors.append(f"run.{name}: must be an integer >= 1")
    if not run.seeds:
        errors.append("run.seeds: need at least one seed")
    elif any(not _is_int(s) or s < 0 for s in run.seeds):
        errors.append("run.seeds: every seed must be an integer >= 0")
    if run.agent not in VARIANTS:
        errors.append(f"run.agent: must be one of {', '.join(VARIANTS)}")
    return errors


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
    if any(b is None for b in blocks.values()):
        raise ConfigError(errors)

    cfg = ScenarioConfig(**blocks)
    # the safety block needs a sound train and track: its derived terminal
    # zone divides by the braking rate, and the floor check steps the train
    physics_errors = validate_model(cfg.train) + validate_track(cfg.train, cfg.track)
    errors += physics_errors
    if not physics_errors:
        if cfg.safety.terminal_zone is None:
            zone = default_terminal_zone(cfg.train, cfg.track)
            cfg.safety = dataclasses.replace(cfg.safety, terminal_zone=zone)
        errors += _validate_safety(cfg.safety, cfg.train, cfg.track)
    errors += _validate_agent(cfg.agent)
    errors += _validate_search(cfg.search)
    errors += _validate_run(cfg.run)
    if errors:
        raise ConfigError(errors)
    return cfg
