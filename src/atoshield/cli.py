"""Command-line surface: config validation, training and the experiment suite.

Every command reads one scenario file, writes per-seed metrics CSVs, a raw
plus window-smoothed reward-curve CSV where training is involved, and a JSON
summary with the run's comparison statistics.  Exit status is 0 only when
every requested seed completed without a shield abort.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import ConfigError, ScenarioConfig, _validate_run, default_scenario_path, load_config
from .drl.agents import load_checkpoint, save_checkpoint
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
METRICS_HEADER = (
    "seed", "episode", "reward", "protect_times", "overspeed", "energy", "time", "deviation",
)


def moving_average(values, window: int = SMOOTH_WINDOW) -> list[float]:
    """Trailing moving average used for the reported reward curves."""
    out = []
    for i in range(len(values)):
        lo = max(0, i - window + 1)
        out.append(float(np.mean(values[lo : i + 1])))
    return out


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


def read_metrics_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != METRICS_HEADER:
            raise ValueError(f"{path}: unexpected metrics header {reader.fieldnames}")
        return [
            {
                "seed": int(r["seed"]),
                "episode": int(r["episode"]),
                "reward": float(r["reward"]),
                "protect_times": int(r["protect_times"]),
                "overspeed": int(r["overspeed"]),
                "energy": float(r["energy"]),
                "time": float(r["time"]),
                "deviation": float(r["deviation"]),
            }
            for r in reader
        ]


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
    if getattr(args, "episodes", None) is not None:
        run = dataclasses.replace(run, max_episodes=args.episodes)
    # the file itself passed validation, so every error here comes from a flag
    flags = {"run.agent": "--agent", "run.seeds": "--seed", "run.max_episodes": "--episodes"}
    errors = _validate_run(run, cfg.search)
    if errors:
        raise ConfigError([f"{flags.get(e.split(':')[0], 'override')}: {e}" for e in errors])
    return dataclasses.replace(cfg, run=run)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _train_one_seed(config_path: str, agent: str | None, seed: int,
                    episodes: int | None, out_dir: str) -> dict:
    """Worker for one seeded training run; writes its artifacts, returns a digest."""
    args = argparse.Namespace(config=config_path, agent=agent, seed=str(seed), episodes=episodes)
    cfg = _load(args)
    result = train(cfg, seed)
    out = Path(out_dir)
    tag = f"{cfg.run.agent}_seed{seed}"
    ckpt = out / f"checkpoint_{tag}.json"
    save_checkpoint(ckpt, result.agent, result.converged)
    write_metrics_csv(out / f"metrics_{tag}.csv", [(seed, m) for m in result.metrics])
    write_curve_csv(out / f"curve_{tag}.csv", result.rewards)
    last = result.metrics[-min(10, len(result.metrics)):]
    return {
        "seed": seed,
        "agent": cfg.run.agent,
        "episodes": len(result.metrics),
        "converged": result.converged,
        "checkpoint": str(ckpt),
        "mean_protect_times": float(np.mean([m.protect_times for m in result.metrics])),
        "total_overspeed_steps": int(sum(m.overspeed_steps for m in result.metrics)),
        "final10_mean_reward": float(np.mean([m.total_reward for m in last])),
    }


def cmd_train(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    seeds = list(cfg.run.seeds)
    jobs = [(str(args.config), args.agent, s, args.episodes, str(out)) for s in seeds]
    if args.workers > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            digests = list(pool.map(_train_one_seed, *zip(*jobs)))
    else:
        digests = [_train_one_seed(*job) for job in jobs]
    write_summary(out / "summary.json", {"command": "train", "runs": digests})
    print(f"trained {len(digests)} run(s) -> {out}")
    return 0


def _exec_summary(metrics: list[EpisodeMetrics]) -> dict:
    return {
        "episodes": len(metrics),
        "mean_protect_times": float(np.mean([m.protect_times for m in metrics])),
        "total_overspeed_steps": int(sum(m.overspeed_steps for m in metrics)),
        "arrival_rate": float(np.mean([m.arrived for m in metrics])),
        "mean_abs_deviation_s": float(np.mean([abs(m.schedule_deviation_s) for m in metrics])),
        "mean_action_select_ms": float(np.mean([m.action_select_mean_s for m in metrics])) * 1e3,
    }


def cmd_execute(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    rows = []
    summaries = {}
    for seed in cfg.run.seeds:
        agent = load_checkpoint(args.checkpoint, cfg.agent, np.random.default_rng(seed))
        use_additional = (
            args.use_additional
            if args.use_additional is not None
            else getattr(agent, "additional_converged", False)
        )
        metrics = execute(agent, cfg, use_additional=use_additional,
                          episodes=cfg.run.execution_episodes, seed=seed)
        rows += [(seed, m) for m in metrics]
        summaries[str(seed)] = {**_exec_summary(metrics), "use_additional": use_additional}
    write_metrics_csv(out / "execution_metrics.csv", rows)
    payload = {"command": "execute", "checkpoint": str(args.checkpoint), "per_seed": summaries}
    if args.compare_with:
        baseline = read_metrics_csv(Path(args.compare_with))
        base_mean = float(np.mean([r["protect_times"] for r in baseline]))
        ours = float(np.mean([r[1].protect_times for r in rows]))
        payload["comparison"] = {
            "baseline_metrics": str(args.compare_with),
            "baseline_mean_protect_times": base_mean,
            "mean_protect_times": ours,
            "protect_decline_pct": protect_decline_pct(ours, base_mean),
        }
    write_summary(out / "summary.json", payload)
    print(f"executed {len(rows)} episode(s) -> {out}")
    return 0


def cmd_noise_test(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    rows = []
    for seed in cfg.run.seeds:
        metrics = noise_test(cfg, args.cmd, episodes=args.episodes, seed=seed)
        rows += [(seed, m) for m in metrics]
    write_metrics_csv(out / "noise_test_metrics.csv", rows)
    write_summary(out / "summary.json", {
        "command": "noise_test",
        "constant_cmd": args.cmd,
        **_exec_summary([m for _, m in rows]),
    })
    print(f"noise test ({args.cmd:+.1f}) -> {out}")
    return 0


def cmd_robustness(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    agent = load_checkpoint(args.checkpoint, cfg.agent, np.random.default_rng(cfg.run.seeds[0]))
    if args.eps_r is not None and args.delta_r is not None:
        grid = [(args.eps_r, args.delta_r)]
    else:
        levels = [round(0.1 * k, 1) for k in range(1, 6)]
        grid = [(e, d) for e in levels for d in levels]
    with open(out / "pcc_grid.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps_r", "delta_r", "pcc_speed", "pcc_action", "pcc_accel",
                         "arrived", "overspeed"])
        for eps_r, delta_r in grid:
            metrics, triple = robustness_run(agent, cfg, eps_r, delta_r, seed=cfg.run.seeds[0])
            writer.writerow([
                eps_r, delta_r,
                "" if triple.speed is None else f"{triple.speed:.6f}",
                "" if triple.action is None else f"{triple.action:.6f}",
                "" if triple.accel is None else f"{triple.accel:.6f}",
                int(metrics.arrived), metrics.overspeed_steps,
            ])
    print(f"robustness grid ({len(grid)} cells) -> {out}")
    return 0


def cmd_transfer(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    seed = cfg.run.seeds[0]
    agent = load_checkpoint(args.checkpoint, cfg.agent, np.random.default_rng(seed))
    use_additional = getattr(agent, "additional_converged", False)
    metrics = execute(agent, cfg, use_additional=use_additional,
                      episodes=cfg.run.execution_episodes, seed=seed)
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
        "use_additional": use_additional,
        "mean_protect_times": exec_protect,
        "noise_test_protect_times": noise_protect,
        "protect_decline_pct": protect_decline_pct(exec_protect, noise_protect),
        "arrival_rate": float(np.mean([m.arrived for m in metrics])),
        "transferable": transferable,
    })
    print(f"transfer check (transferable={transferable}) -> {out}")
    return 0


ABLATION_VARIANTS = ("half", "quarter", "double", "quadruple", "layer_less", "layer_more")


def ablation_hidden(base: tuple[int, ...], variant: str) -> tuple[int, ...]:
    """The six alternative widths/depths tried for the additional actor."""
    if variant == "half":
        return tuple(max(1, h // 2) for h in base)
    if variant == "quarter":
        return tuple(max(1, h // 4) for h in base)
    if variant == "double":
        return tuple(h * 2 for h in base)
    if variant == "quadruple":
        return tuple(h * 4 for h in base)
    if variant == "layer_less":
        return base[:-1] if len(base) > 1 else base
    if variant == "layer_more":
        return base + (base[-1],)
    raise ValueError(f"unknown ablation variant {variant!r}")


def cmd_ablation(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    seed = cfg.run.seeds[0]
    results = {}
    for variant in ABLATION_VARIANTS:
        hidden = ablation_hidden(tuple(cfg.agent.hidden_sizes), variant)
        agent_cfg = dataclasses.replace(cfg.agent, additional_hidden_sizes=hidden)
        vcfg = dataclasses.replace(cfg, agent=agent_cfg)
        result = train(vcfg, seed)
        metrics = execute(result.agent, vcfg, use_additional=result.converged,
                          episodes=vcfg.run.execution_episodes, seed=seed)
        write_metrics_csv(out / f"ablation_{variant}_metrics.csv", [(seed, m) for m in metrics])
        results[variant] = {
            "additional_hidden_sizes": list(hidden),
            "converged": result.converged,
            **_exec_summary(metrics),
        }
    write_summary(out / "summary.json", {"command": "ablation", "per_variant": results})
    print(f"ablation over {len(ABLATION_VARIANTS)} structures -> {out}")
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    print(f"{args.config}: valid ({cfg.track.length:.0f} m section, "
          f"agent {cfg.run.agent}, {len(cfg.run.seeds)} seed(s))")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atoshield",
        description="Shielded RL train-operation trainer and experiment suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False, episodes=None):
        p.add_argument("--config", default=str(default_scenario_path()),
                       help="scenario YAML (defaults to the bundled section)")
        p.add_argument("--seed", default=None, help="comma-separated seed list override")
        p.add_argument("--episodes", type=int, default=episodes, help="episode count override")
        p.add_argument("--agent", default=None, choices=[v.replace("_", "-") for v in VARIANTS],
                       help="agent variant override")
        p.add_argument("--out", required=True, help="output directory")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="trained checkpoint path")

    p = sub.add_parser("train", help="train the configured variant over the seed list")
    common(p)
    p.add_argument("--workers", type=int, default=1, help="parallel seed workers")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("execute", help="greedy shielded rollouts of a checkpoint")
    common(p, checkpoint=True)
    p.add_argument("--use-additional", action=argparse.BooleanOptionalAction, default=None,
                   help="force the additional actor on/off (default: if converged)")
    p.add_argument("--compare-with", default=None,
                   help="baseline metrics CSV for the protect-decline summary")
    p.set_defaults(func=cmd_execute)

    p = sub.add_parser("noise-test", help="constant-command probe through the shield path")
    common(p, episodes=1)
    p.add_argument("--cmd", type=float, default=1.0, help="constant command in [-1, 1]")
    p.set_defaults(func=cmd_noise_test)

    p = sub.add_parser("robustness", help="disturbed-execution correlation study")
    common(p, checkpoint=True)
    p.add_argument("--eps-r", type=float, default=None, help="disturbance probability")
    p.add_argument("--delta-r", type=float, default=None, help="disturbance magnitude")
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("transfer", help="deploy a checkpoint onto a new section")
    common(p, checkpoint=True)
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
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnrecoverableStateError as exc:
        print(f"shield abort: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
