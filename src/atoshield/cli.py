"""Command-line surface: config validation, training and the experiment suite.

Every command reads one scenario file, which ``main`` loads and checks once.
``validate`` writes nothing and ``robustness`` only ``pcc_grid.csv``; the
others write metrics CSVs (``train`` also each seed's raw and smoothed reward
curve) and a JSON summary, which identical runs write byte for byte, and
``execute``, ``noise-test`` and ``ablation`` put action-selection times in
``timing.json`` beside it.  Exit status is 0 only when every requested seed
completed without a shield abort.  ``train`` runs every seed even when one
fails: a failed seed's summary entry is ``{"seed", "error"}``, one stderr
line names it, and the exit status is 1.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

# One BLAS thread unless the caller chose otherwise, set before numpy loads:
# the learner's products are too small to gain from a second thread, which
# only burns a core (and every ``train --workers`` process inherits this).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

from .config import ConfigError, ScenarioConfig, _validate_run, default_scenario_path, load_config
from .drl.agents import CheckpointError, load_checkpoint, save_checkpoint
from .shield import UnrecoverableStateError
from .trainer import (
    VARIANTS,
    EpisodeMetrics,
    execute,
    noise_test,
    robustness_run,
    train,
)

SMOOTH_WINDOW = 8
# each metrics column and the type of its cells, in file order
METRICS_COLUMNS = {"seed": int, "episode": int, "reward": float, "protect_times": int,
                   "overspeed": int, "energy": float, "time": float, "deviation": float}
METRICS_HEADER = tuple(METRICS_COLUMNS)
# the words a failed run is reported with, by the kind of its failure
RUN_FAILURES = {UnrecoverableStateError: "shield abort", FloatingPointError: "numerical error",
                MemoryError: "out of memory"}


def moving_average(values) -> list[float]:
    """Trailing ``SMOOTH_WINDOW`` moving average used for the reported reward curves."""
    return [float(np.mean(values[max(0, i - SMOOTH_WINDOW + 1) : i + 1]))
            for i in range(len(values))]


def protect_decline_pct(ssa_mean: float, shield_mean: float) -> float | None:
    """Percentage decline |(|ssa| - |shield|) / |shield|| * 100; None when undefined."""
    if shield_mean == 0.0:
        return None
    return abs((abs(ssa_mean) - abs(shield_mean)) / abs(shield_mean)) * 100.0


def write_metrics_csv(path: Path, rows: list[tuple[int, EpisodeMetrics]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for seed, m in rows:
            writer.writerow([
                seed, m.episode, f"{m.total_reward:.6f}", m.protect_times, m.overspeed_steps,
                f"{m.traction_energy_kwh + m.regen_energy_kwh:.6f}",
                f"{m.run_time_s:.3f}", f"{m.schedule_deviation_s:.3f}",
            ])


class MetricsFileError(ValueError):
    """A metrics CSV that does not hold metrics rows; the message names the file."""


def read_metrics_csv(path: Path) -> list[dict]:
    """The rows of a metrics CSV, each cell an int >= 0 or a finite float as
    its column says; raises :class:`MetricsFileError` on text that is not
    UTF-8, a wrong header, a bad cell, a row longer than the header or no rows."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise MetricsFileError(f"{path}: {exc}") from None
    reader = csv.DictReader(lines, restval="")  # a short row's missing cells read as ""
    if tuple(reader.fieldnames or ()) != METRICS_HEADER:
        raise MetricsFileError(f"{path}: unexpected metrics header {reader.fieldnames}")
    rows = []
    for r in reader:
        where = f"{path}: line {reader.line_num}"
        if None in r:  # the reader files the cells past the header under None
            raise MetricsFileError(f"{where}: {len(r[None])} more cells than the header")
        rows.append({})
        for c, kind in METRICS_COLUMNS.items():
            try:
                rows[-1][c] = value = kind(r[c])
                if not (value >= 0 if kind is int else math.isfinite(value)):
                    raise ValueError(f"expected {'>= 0' if kind is int else 'finite'}, got {r[c]!r}")
            except ValueError as exc:
                raise MetricsFileError(f"{where}: {c}: {exc}") from None
    if not rows:
        raise MetricsFileError(f"{path}: no metrics rows")
    return rows


def write_curve_csv(path: Path, rewards: list[float]) -> None:
    smooth = moving_average(rewards)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "reward", f"reward_smooth{SMOOTH_WINDOW}"])
        for i, (raw, s) in enumerate(zip(rewards, smooth)):
            writer.writerow([i, f"{raw:.6f}", f"{s:.6f}"])


def write_summary(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))


def _load(args) -> ScenarioConfig:
    """The scenario file with the command-line overrides applied and validated."""
    cfg = load_config(args.config)
    run = cfg.run
    if getattr(args, "agent", None) is not None:
        run = dataclasses.replace(run, agent=args.agent.replace("-", "_"))
    if getattr(args, "seed", None) is not None:
        try:
            seeds = tuple(int(s) for s in args.seed.split(","))
        except ValueError:
            raise ConfigError([f"--seed: expected comma-separated integers, got {args.seed!r}"]) from None
        run = dataclasses.replace(run, seeds=seeds)
    # --episodes sets the field its command reads
    for field in ("max_episodes", "execution_episodes"):
        if getattr(args, field, None) is not None:
            run = dataclasses.replace(run, **{field: getattr(args, field)})
    # the file itself passed validation, so every error here comes from a flag
    flags = {"run.agent": "--agent", "run.seeds": "--seed", "run.max_episodes": "--episodes",
             "run.execution_episodes": "--episodes"}
    errors = _validate_run(run)
    if errors:
        raise ConfigError([f"{flags.get(e.split(':')[0], 'override')}: {e}" for e in errors])
    return dataclasses.replace(cfg, run=run)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _train_one_seed(cfg: ScenarioConfig, seed: int, out: Path) -> dict:
    """Worker for one seeded training run; writes its artifacts, returns a digest."""
    result = train(cfg, seed)
    tag = f"{cfg.run.agent}_seed{seed}"
    ckpt = out / f"checkpoint_{tag}.json"
    save_checkpoint(ckpt, result.agent)
    write_metrics_csv(out / f"metrics_{tag}.csv", [(seed, m) for m in result.metrics])
    write_curve_csv(out / f"curve_{tag}.csv", [m.total_reward for m in result.metrics])
    last = result.metrics[-min(10, len(result.metrics)):]
    return {
        "seed": seed,
        "agent": cfg.run.agent,
        "episodes": len(result.metrics),
        "converged": result.agent.additional_converged,
        "checkpoint": str(ckpt),
        "mean_protect_times": float(np.mean([m.protect_times for m in result.metrics])),
        "total_overspeed_steps": int(sum(m.overspeed_steps for m in result.metrics)),
        "final10_mean_reward": float(np.mean([m.total_reward for m in last])),
    }


def _failure(exc: Exception) -> str:
    """A failed run in one line: the words of its kind in ``RUN_FAILURES``, then its message."""
    return next(f"{words}: {exc}" for kind, words in RUN_FAILURES.items() if isinstance(exc, kind))


def _seed_run(seed: int, run) -> dict:
    """``run()``'s digest, or ``{"seed", "error"}`` when the seed's training
    failed in one of the ``RUN_FAILURES``; a failure prints one line."""
    try:
        return run()
    except tuple(RUN_FAILURES) as exc:
        error = _failure(exc)
    print(f"seed {seed}: {error}", file=sys.stderr)
    return {"seed": seed, "error": error}


def cmd_train(args, cfg: ScenarioConfig) -> int:
    out = _out_dir(args)
    seeds = list(cfg.run.seeds)
    # a forked pool starts all its processes at the first submit, so it
    # gets no more of them than there are seeds
    workers = min(args.workers, len(seeds))
    if workers > 1:
        # imported here so that every other command skips concurrent.futures,
        # which loads multiprocessing and logging
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_train_one_seed, cfg, seed, out) for seed in seeds]
            runs = [_seed_run(seed, fut.result) for seed, fut in zip(seeds, futures)]
    else:
        runs = [_seed_run(seed, functools.partial(_train_one_seed, cfg, seed, out))
                for seed in seeds]
    write_summary(out / "summary.json", {"command": "train", "runs": runs})
    failed = sum("error" in r for r in runs)
    print(f"trained {len(runs) - failed} of {len(runs)} run(s) -> {out}")
    return 1 if failed else 0


def _exec_summary(metrics: list[EpisodeMetrics]) -> tuple[dict, dict]:
    """A run's seeded summary, and apart from it its wall-clock timing."""
    return {
        "episodes": len(metrics),
        "mean_protect_times": float(np.mean([m.protect_times for m in metrics])),
        "total_overspeed_steps": int(sum(m.overspeed_steps for m in metrics)),
        "arrival_rate": float(np.mean([m.arrived for m in metrics])),
        "mean_abs_deviation_s": float(np.mean([abs(m.schedule_deviation_s) for m in metrics])),
    }, {"mean_action_select_ms": float(np.mean([m.action_select_mean_s for m in metrics])) * 1e3}


def cmd_execute(args, cfg: ScenarioConfig) -> int:
    # a bad baseline or checkpoint is reported before --out is made
    baseline = read_metrics_csv(Path(args.compare_with)) if args.compare_with else None
    # every run reseeds agent.rng, so one build serves every seed
    agent = load_checkpoint(args.checkpoint, cfg.agent, np.random.default_rng(cfg.run.seeds[0]))
    out = _out_dir(args)
    use_additional = (args.use_additional if args.use_additional is not None
                      else agent.additional_converged)
    rows = []
    summaries, timings = {}, {}
    for seed in cfg.run.seeds:
        metrics = execute(agent, cfg, use_additional=use_additional, seed=seed)
        rows += [(seed, m) for m in metrics]
        summary, timings[str(seed)] = _exec_summary(metrics)
        summaries[str(seed)] = {**summary, "use_additional": use_additional}
    write_metrics_csv(out / "execution_metrics.csv", rows)
    payload = {"command": "execute", "checkpoint": str(args.checkpoint), "per_seed": summaries}
    if baseline is not None:
        base_mean = float(np.mean([r["protect_times"] for r in baseline]))
        ours = float(np.mean([r[1].protect_times for r in rows]))
        payload["comparison"] = {
            "baseline_metrics": str(args.compare_with),
            "baseline_mean_protect_times": base_mean,
            "mean_protect_times": ours,
            "protect_decline_pct": protect_decline_pct(ours, base_mean),
        }
    write_summary(out / "summary.json", payload)
    write_summary(out / "timing.json", {"command": "execute", "per_seed": timings})
    print(f"executed {len(rows)} episode(s) -> {out}")
    return 0


def cmd_noise_test(args, cfg: ScenarioConfig) -> int:
    out = _out_dir(args)
    # the probe is deterministic, so one run, labelled with the first seed,
    # stands for every seed in run.seeds
    metrics = noise_test(cfg, args.cmd, episodes=cfg.run.execution_episodes)
    summary, timing = _exec_summary(metrics)
    write_metrics_csv(out / "noise_test_metrics.csv", [(cfg.run.seeds[0], m) for m in metrics])
    write_summary(out / "summary.json", {
        "command": "noise_test",
        "constant_cmd": args.cmd,
        "seeds": list(cfg.run.seeds),
        **summary,
    })
    write_summary(out / "timing.json", {"command": "noise_test", **timing})
    print(f"noise test ({args.cmd:+.1f}) -> {out}")
    return 0


def cmd_robustness(args, cfg: ScenarioConfig) -> int:
    agent = load_checkpoint(args.checkpoint, cfg.agent, np.random.default_rng(cfg.run.seeds[0]))
    out = _out_dir(args)
    if args.eps_r is not None and args.delta_r is not None:
        grid = [(args.eps_r, args.delta_r)]
    else:
        levels = [round(0.1 * k, 1) for k in range(1, 6)]
        grid = [(e, d) for e in levels for d in levels]
    cells = robustness_run(agent, cfg, grid, seed=cfg.run.seeds[0])
    with open(out / "pcc_grid.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps_r", "delta_r", "pcc_speed", "pcc_action", "pcc_accel",
                         "arrived", "overspeed"])
        for (eps_r, delta_r), (metrics, triple) in zip(grid, cells):
            writer.writerow([
                eps_r, delta_r,
                "" if triple.speed is None else f"{triple.speed:.6f}",
                "" if triple.action is None else f"{triple.action:.6f}",
                "" if triple.accel is None else f"{triple.accel:.6f}",
                int(metrics.arrived), metrics.overspeed_steps,
            ])
    print(f"robustness grid ({len(grid)} cells) -> {out}")
    return 0


def cmd_transfer(args, cfg: ScenarioConfig) -> int:
    seed = cfg.run.seeds[0]
    agent = load_checkpoint(args.checkpoint, cfg.agent, np.random.default_rng(seed))
    out = _out_dir(args)
    metrics = execute(agent, cfg, use_additional=agent.additional_converged, seed=seed)
    baseline = noise_test(cfg, 1.0, episodes=1, seed=seed)
    write_metrics_csv(out / "transfer_metrics.csv", [(seed, m) for m in metrics])
    exec_protect = float(np.mean([m.protect_times for m in metrics]))
    noise_protect = float(baseline[0].protect_times)
    transferable = (
        all(m.arrived for m in metrics)
        and noise_protect > 0
        and exec_protect < 0.5 * noise_protect
    )
    write_summary(out / "summary.json", {
        "command": "transfer",
        "checkpoint": str(args.checkpoint),
        "use_additional": agent.additional_converged,
        "mean_protect_times": exec_protect,
        "noise_test_protect_times": noise_protect,
        "protect_decline_pct": protect_decline_pct(exec_protect, noise_protect),
        "arrival_rate": float(np.mean([m.arrived for m in metrics])),
        "transferable": transferable,
    })
    print(f"transfer check (transferable={transferable}) -> {out}")
    return 0


# the additional-actor structures the ablation tries, in run order: each
# name's rule for the hidden widths from the agent's own
ABLATION_STRUCTURES = {
    "half": lambda base: tuple(max(1, h // 2) for h in base),
    "quarter": lambda base: tuple(max(1, h // 4) for h in base),
    "double": lambda base: tuple(h * 2 for h in base),
    "quadruple": lambda base: tuple(h * 4 for h in base),
    "layer_less": lambda base: base[:-1] if len(base) > 1 else base,
    "layer_more": lambda base: base + (base[-1],),
}


def cmd_ablation(args, cfg: ScenarioConfig) -> int:
    out = _out_dir(args)
    seed = cfg.run.seeds[0]
    results, timings = {}, {}
    for variant, widths in ABLATION_STRUCTURES.items():
        hidden = widths(tuple(cfg.agent.hidden_sizes))
        agent_cfg = dataclasses.replace(cfg.agent, additional_hidden_sizes=hidden)
        vcfg = dataclasses.replace(cfg, agent=agent_cfg)
        agent = train(vcfg, seed).agent
        metrics = execute(agent, vcfg, use_additional=agent.additional_converged, seed=seed)
        write_metrics_csv(out / f"ablation_{variant}_metrics.csv", [(seed, m) for m in metrics])
        summary, timings[variant] = _exec_summary(metrics)
        results[variant] = {
            "additional_hidden_sizes": list(hidden),
            "converged": agent.additional_converged,
            **summary,
        }
    write_summary(out / "summary.json", {"command": "ablation", "per_variant": results})
    write_summary(out / "timing.json", {"command": "ablation", "per_variant": timings})
    print(f"ablation over {len(ABLATION_STRUCTURES)} structures -> {out}")
    return 0


def cmd_validate(args, cfg: ScenarioConfig) -> int:
    print(f"{args.config}: valid ({cfg.track.length:.0f} m section, "
          f"agent {cfg.run.agent}, {len(cfg.run.seeds)} seed(s))")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as one stderr line and exit status 2, as the
    commands report a bad config."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _number_in(lo: float, hi: float, words: str):
    """An argparse type: a finite number in [lo, hi], else an error saying
    ``expected a finite number <words>``."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and lo <= value <= hi):
            raise argparse.ArgumentTypeError(f"expected a finite number {words}, got {text!r}")
        return value

    return parse


def _positive_int(text: str) -> int:
    """An argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="atoshield",
        description="Shielded RL train-operation trainer and experiment suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False, episodes="max_episodes"):
        """The flags every command takes; ``--episodes`` sets the run field
        ``episodes`` names, and a command without one takes no such flag."""
        p.add_argument("--config", default=str(default_scenario_path()),
                       help="scenario YAML (defaults to the bundled section)")
        p.add_argument("--seed", default=None, help="comma-separated seed list override")
        if episodes:
            p.add_argument("--episodes", type=int, dest=episodes, metavar="N",
                           help=f"run.{episodes} override")
        p.add_argument("--agent", default=None, choices=[v.replace("_", "-") for v in VARIANTS],
                       help="agent variant override")
        p.add_argument("--out", required=True, help="output directory")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="trained checkpoint path")

    p = sub.add_parser("train", help="train the configured variant over the seed list")
    common(p)
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="parallel seed workers, at most one per seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("execute", help="greedy shielded rollouts of a checkpoint")
    common(p, checkpoint=True, episodes="execution_episodes")
    p.add_argument("--use-additional", action=argparse.BooleanOptionalAction, default=None,
                   help="force the additional actor on/off (default: if converged)")
    p.add_argument("--compare-with", default=None,
                   help="baseline metrics CSV for the protect-decline summary")
    p.set_defaults(func=cmd_execute)

    p = sub.add_parser("noise-test", help="constant-command probe through the shield path")
    common(p, episodes="execution_episodes")
    p.add_argument("--cmd", type=_number_in(-1.0, 1.0, "in [-1, 1]"), default=1.0,
                   help="constant command in [-1, 1]")
    # one probe episode unless --episodes says otherwise
    p.set_defaults(func=cmd_noise_test, execution_episodes=1)

    p = sub.add_parser("robustness", help="disturbed-execution correlation study")
    common(p, checkpoint=True, episodes=None)  # one episode per cell
    p.add_argument("--eps-r", type=_number_in(0.0, 1.0, "in [0, 1]"), default=None,
                   help="disturbance probability in [0, 1]")
    p.add_argument("--delta-r", type=_number_in(0.0, math.inf, ">= 0"), default=None,
                   help="disturbance magnitude, >= 0")
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("transfer", help="deploy a checkpoint onto a new section")
    common(p, checkpoint=True, episodes="execution_episodes")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("ablation", help="six additional-actor structures, trained and executed")
    common(p)
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("validate", help="check a scenario file and report every violation")
    p.add_argument("--config", default=str(default_scenario_path()))
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "robustness" and (args.eps_r is None) != (args.delta_r is None):
        parser.error("robustness: --eps-r and --delta-r go together; give both or neither")
    try:
        return args.func(args, _load(args))
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (CheckpointError, MetricsFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except tuple(RUN_FAILURES) as exc:
        print(_failure(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
