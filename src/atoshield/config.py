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
import operator
import sys
import typing
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import yaml

from .dynamics import (
    OperationState, RewardWeights, TrackSection, TrainModel, step, validate_track,
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


# The range of each bounded field, by block.  A rule compares the field with
# a number (``> 0``), a field of the same block (``>= batch_size``) or an
# interval (``in (0, 1]``), and its text is the error's wording; a None, where
# None is the default, is not checked.
_BOUNDS = {
    "train": {
        "mass_tonnes": "> 0", "davis_r1": ">= 0", "davis_r2": ">= 0", "davis_r3": ">= 0",
        "max_accel": "in (0, 5]", "max_decel": "in (0, 5]", "base_speed_traction": "> 0",
        "base_speed_braking": "> 0", "regen_efficiency": "in [0, 1]",
    },
    "track": {"length": "> 0", "scheduled_time": "> 0", "dt": "> 0"},
    "safety": {"min_speed": ">= 0", "terminal_zone": ">= 0"},
    "reward": dict.fromkeys(("alpha_traction", "alpha_regen", "alpha_time_terminal",
                             "alpha_time_step", "comfort_penalty", "jerk_threshold"), ">= 0"),
    "agent": {
        "actor_lr": "> 0", "critic_lr": "> 0", "sac_value_lr": "> 0", "sac_softq_lr": "> 0",
        "additional_actor_lr": "> 0", "gamma": "in (0, 1]", "soft_tau": "in (0, 1]",
        "entropy_alpha": ">= 0", "convergence_eps": "> 0", "elite_minibatch": ">= 1",
        "elite_capacity": ">= elite_minibatch", "batch_size": ">= 1",
        "replay_capacity": ">= batch_size", "additional_updates_per_episode": ">= 0",
        "noise_scale": ">= 0",
    },
    "search": {"expansion_width": ">= 1", "backup_discount": "in (0, 1]", "action_grid": ">= 2"},
    "run": {"max_episodes": ">= 1", "t_up": ">= 1", "step_budget": ">= 1",
            "execution_episodes": ">= 1"},
}

# the comparison of a rule, or of one end of its interval, by its symbol
_COMPARE = {">": operator.gt, ">=": operator.ge, "(": operator.gt, "[": operator.ge,
            "]": operator.le}


def _holds(rule: str, value, block) -> bool:
    """Whether ``value`` meets ``rule``: ``> 0``, ``>= batch_size`` (a field of
    ``block``) or ``in (0, 5]``.  None, where it is the default, always does."""
    if rule.startswith("in "):
        lo, hi = rule[4:-1].split(", ")
        return _holds(f"{rule[3]} {lo}", value, block) and _holds(f"{rule[-1]} {hi}", value, block)
    symbol, operand = rule.split(" ")
    bound = getattr(block, operand) if operand.isidentifier() else float(operand)
    return value is None or _COMPARE[symbol](value, bound)


def _bound_errors(name: str, block) -> list[str]:
    """One line per field of ``block`` outside its ``_BOUNDS`` range."""
    return [f"{name}.{key}: must be {rule}" for key, rule in _BOUNDS[name].items()
            if not _holds(rule, getattr(block, key), block)]


def _validate_safety(spec: SafetySpec, model: TrainModel, track: TrackSection) -> list[str]:
    errors = _bound_errors("safety", spec)
    if spec.min_speed is not None and spec.terminal_zone >= track.length:
        errors.append("safety.terminal_zone: must be smaller than the track length")
    if errors or spec.min_speed is None:
        return errors
    # where the floor applies, a segment must leave speeds above the floor
    # and at or below its limit
    for i, (start, end, limit) in enumerate(track.limit_segments):
        if start < track.length - spec.terminal_zone and limit <= spec.min_speed:
            return [f"safety.min_speed: {spec.min_speed} km/h is not below the {limit} km/h "
                    f"limit of track.limit_segments[{i}] ({start}-{end} m), where the floor applies"]
    # the shield's floor test on the fastest first interval: when even full
    # traction from standstill breaks the floor, no first command is safe
    out = step(model, track, OperationState(), 1.0)
    nxt = out.next_state
    if not out.arrived and floor_applies(spec, track, nxt.loc) and nxt.vel <= spec.min_speed:
        errors.append(f"safety.min_speed: full traction from standstill reaches only "
                      f"{nxt.vel:.2f} km/h in one interval, not above the floor")
    return errors


def _validate_agent(agent: AgentConfig) -> list[str]:
    errors = _bound_errors("agent", agent)
    for key in ("hidden_sizes", "additional_hidden_sizes"):
        sizes = getattr(agent, key)
        if sizes is not None and (not sizes or min(sizes) < 1):
            errors.append(f"agent.{key}: need at least one layer width, each >= 1")
    return errors


def _validate_run(run: RunConfig) -> list[str]:
    errors = _bound_errors("run", run)
    if not run.seeds:
        errors.append("run.seeds: need at least one seed")
    elif min(run.seeds) < 0:
        errors.append("run.seeds: every seed must be >= 0")
    elif len(set(run.seeds)) < len(run.seeds):
        errors.append("run.seeds: every seed must be distinct")
    if run.agent not in VARIANTS:
        errors.append(f"run.agent: must be one of {', '.join(VARIANTS)}")
    return errors


def _validate_budget(run: RunConfig, track: TrackSection) -> list[str]:
    """The episode step budget in [1, ``MAX_STEP_BUDGET``], or one line
    naming the field that sets it."""
    try:
        budget = run.resolved_budget(track)
    except OverflowError:  # a track.dt so small that the default budget is infinite
        budget = math.inf
    if 1 <= budget <= MAX_STEP_BUDGET:
        return []
    if run.step_budget is not None:  # its own bound reports one below 1
        return [] if budget < 1 else [f"run.step_budget: {budget} steps per episode exceeds "
                                      f"the cap of {MAX_STEP_BUDGET}"]
    bound = f"above the cap of {MAX_STEP_BUDGET}" if budget > 1 else "below the least budget of 1"
    return [f"track.dt: {track.dt} s gives a default budget of {budget} steps per episode "
            f"(3 x scheduled_time / dt), {bound}"]


def _unparsed(exc: UnicodeDecodeError | yaml.YAMLError) -> str:
    """A file that is not UTF-8 YAML, as one line naming the problem and,
    where the parser marks it, its line and column."""
    mark = getattr(exc, "problem_mark", None)
    problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
    where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
    return f"file: {problem}{where}"


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse and fully validate one scenario file; raises ConfigError."""
    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError([_unparsed(exc)]) from None
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected a mapping of config blocks"])
    errors: list[str] = []
    for key in raw:
        if key not in _FIELD_MAP:
            errors.append(f"{key}: unknown block")
    blocks: dict[str, object] = {}
    for name, cls in _FIELD_MAP.items():
        # only a missing or null block is empty: a 0, false, [] or "" is not a mapping
        content = {} if raw.get(name) is None else raw[name]
        if not isinstance(content, dict):
            errors.append(f"{name}: expected a mapping")
            content = {}
        blocks[name] = _coerce_block(name, cls, content, errors)
    # a block that failed its type check is not checked against its
    # invariants, nor is a check that reads it; the other blocks still are
    train, track, safety = blocks["train"], blocks["track"], blocks["safety"]
    physics_errors = [line for name in ("train", "track") if blocks[name]
                      for line in _bound_errors(name, blocks[name])]
    if train and track:
        physics_errors += validate_track(train, track)
    errors += physics_errors
    # the safety block needs a sound train and track: a floor's derived
    # terminal zone divides by the braking rate, and its check steps the train
    if train and track and safety and not physics_errors:
        if safety.min_speed is not None and safety.terminal_zone is None:
            safety = dataclasses.replace(safety, terminal_zone=default_terminal_zone(train, track))
            blocks["safety"] = safety
        errors += _validate_safety(safety, train, track)
    for name, check in (("reward", lambda reward: _bound_errors("reward", reward)),
                        ("agent", _validate_agent),
                        ("search", lambda search: _bound_errors("search", search)),
                        ("run", _validate_run)):
        if blocks[name]:
            errors += check(blocks[name])
    # the budget is 3 x scheduled_time / dt, so it waits for both to be > 0
    if blocks["run"] and track and min(track.dt, track.scheduled_time) > 0:
        errors += _validate_budget(blocks["run"], track)
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(**blocks)
