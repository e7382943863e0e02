"""Scenario configuration: one YAML file defines a whole experiment.

The file has seven blocks (train, track, safety, reward, agent, search, run),
each mapping onto one runtime dataclass.  Validation is all-at-once: every
violated invariant is reported with its field path, and unknown keys are
rejected rather than ignored.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import yaml

from .dynamics import RewardWeights, TrackSection, TrainModel, validate_model, validate_track
from .drl.agents import AgentConfig
from .search_tree import SearchConfig
from .shield import SafetySpec, default_terminal_zone
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


_BLOCKS = ("train", "track", "safety", "reward", "agent", "search", "run")

_FIELD_MAP = {
    "train": TrainModel,
    "track": TrackSection,
    "safety": SafetySpec,
    "reward": RewardWeights,
    "agent": AgentConfig,
    "run": RunConfig,
}

_LIST_FIELDS = {"limit_segments", "grade_segments", "seeds", "hidden_sizes", "additional_hidden_sizes"}


def default_scenario_path() -> Path:
    """Filesystem path of the bundled synthetic section."""
    return Path(resources.files("atoshield").joinpath("data/default.yaml"))


def _coerce_block(name: str, cls, raw: dict, errors: list[str]):
    known = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        if key not in known:
            errors.append(f"{name}.{key}: unknown key")
            continue
        if key in _LIST_FIELDS and value is not None:
            if not isinstance(value, (list, tuple)):
                errors.append(f"{name}.{key}: expected a list, got {value!r}")
                continue
            value = tuple(tuple(v) if isinstance(v, (list, tuple)) else v for v in value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        errors.append(f"{name}: {exc}")
        return None


def _validate_safety(spec: SafetySpec, track: TrackSection) -> list[str]:
    errors = []
    if spec.min_speed < 0.0:
        errors.append("safety.min_speed: must be >= 0")
    if spec.terminal_zone < 0.0:
        errors.append("safety.terminal_zone: must be >= 0")
    elif track is not None and spec.terminal_zone >= track.length:
        errors.append("safety.terminal_zone: must be smaller than the track length")
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


def _validate_run(run: RunConfig, search: SearchConfig) -> list[str]:
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
    if search is not None and search.update_frequency != run.t_up:
        errors.append(
            "search.update_frequency: must equal run.t_up (the tree's depth "
            "bound is the update cadence)"
        )
    return errors


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse and fully validate one scenario file; raises ConfigError."""
    raw = yaml.safe_load(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected a mapping of config blocks"])
    errors: list[str] = []
    for key in raw:
        if key not in _BLOCKS:
            errors.append(f"{key}: unknown block")
    blocks: dict[str, object] = {}
    for name in _BLOCKS:
        content = raw.get(name, {}) or {}
        if not isinstance(content, dict):
            errors.append(f"{name}: expected a mapping")
            content = {}
        if name == "search":
            blocks[name] = _coerce_search(content, raw.get("run", {}) or {}, errors)
        else:
            blocks[name] = _coerce_block(name, _FIELD_MAP[name], content, errors)
    if any(b is None for b in blocks.values()):
        raise ConfigError(errors)

    cfg = ScenarioConfig(**blocks)
    cfg = _resolve_defaults(cfg)
    errors += validate_model(cfg.train)
    track_errors = validate_track(cfg.train, cfg.track)
    errors += track_errors
    if not track_errors:
        errors += _validate_safety(cfg.safety, cfg.track)
    errors += _validate_agent(cfg.agent)
    errors += _validate_run(cfg.run, cfg.search)
    if errors:
        raise ConfigError(errors)
    return cfg


def _coerce_search(raw: dict, run_raw: dict, errors: list[str]) -> SearchConfig | None:
    raw = dict(raw)
    # the tree's horizon is the learner's update cadence; inherit when unset
    if "update_frequency" not in raw and "t_up" in run_raw:
        raw["update_frequency"] = run_raw["t_up"]
    return _coerce_block("search", SearchConfig, raw, errors)


def _resolve_defaults(cfg: ScenarioConfig) -> ScenarioConfig:
    """Fill the derived defaults that need the whole config in hand."""
    safety = cfg.safety
    if safety.terminal_zone is None:
        safety = dataclasses.replace(
            safety, terminal_zone=default_terminal_zone(cfg.train, cfg.track)
        )
    return dataclasses.replace(cfg, safety=safety)
