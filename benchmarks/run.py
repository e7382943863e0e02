"""Seeded end-to-end benchmark of atoshield, with an optional per-layer ledger.

    python3 benchmarks/run.py --workload train_ssa_ddpg --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  See benchmarks/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build"
LOAD_REPEATS = 7  # in-process load_config calls; the least is reported
REFERENCE_S = 1.1e-3  # the host-speed kernel's time on the reference host; see HostReference

# Imports plus one validated config, in a fresh interpreter: what every
# `atoshield` command pays before its first environment step.  The child
# prints the system-wide monotonic clock when the config is ready, then the
# host-speed kernel's time, taken in the same process right after.
SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import atoshield
from atoshield.config import load_config
load_config(sys.argv[2])
print(repr(time.monotonic()))
sys.path.insert(0, sys.argv[3])
from run import HostReference
print(repr(HostReference().mark()[2]))
"""


@dataclass(frozen=True)
class Workload:
    """One entry of BENCHMARK.json's workloads; README.md says why each exists."""

    overrides: dict
    unit_s: float  # typical seconds per unit on a 2-core x86 host; sizes the plan
    traced_cost: float  # traced over untraced time; sizes the traced plan
    probe: bool = False  # units are +1 noise-test episodes instead of trainings
    seeded: bool = True  # units train seeds drawn from --seed, not run.seeds
    mark_steps: int = 100  # environment steps between host-speed timings, ~0.1 s of work


SEEDED_REPEATS = 3  # runs of each seed-drawn unit

WORKLOADS = {
    "train_ssa_ddpg": Workload(
        overrides={"run": {"agent": "ssa_ddpg", "max_episodes": 10}},
        unit_s=1.7,
        traced_cost=1.2,
        seeded=False,
    ),
    "train_shield_sac": Workload(
        overrides={"run": {"agent": "shield_sac", "max_episodes": 6}},
        unit_s=1.5,
        traced_cost=1.0,
    ),
    "probe_deep": Workload(
        overrides={"run": {"t_up": 7}},
        unit_s=1.1,
        traced_cost=1.7,
        probe=True,
        seeded=False,
        mark_steps=10,
    ),
}


def fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "atoshield" / "__init__.py").is_file():
        fail(f"no atoshield sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import atoshield

    if not Path(atoshield.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported atoshield from {atoshield.__file__}, not from {SRC}")
    return atoshield


def merged(base: dict, overrides: dict) -> dict:
    out = dict(base)
    for key, value in overrides.items():
        out[key] = merged(base.get(key) or {}, value) if isinstance(value, dict) else value
    return out


def write_scenario(workload: Workload, directory: Path) -> Path:
    import yaml

    base = yaml.safe_load((SRC / "atoshield" / "data" / "default.yaml").read_text())
    path = directory / "scenario.yaml"
    path.write_text(yaml.safe_dump(merged(base, workload.overrides), sort_keys=True))
    return path


class _Node:
    __slots__ = ("value", "link", "extra")

    def __init__(self, value, link=None, extra=None):
        self.value, self.link, self.extra = value, link, extra


class HostReference:
    """Host speed, from a fixed kernel timed between stretches of program work.

    The shared host's speed drifts by up to 1.5x over seconds to minutes, in
    CPU time as much as in wall time, so no run can outlast the drift.  A
    stretch of program work that took ``t`` between two kernel timings ``r0``
    and ``r1`` is reported as ``t / ((r0 + r1) / 2)`` kernel times, which the
    metrics turn into seconds at REFERENCE_S per kernel time.

    A slowdown of the host does not slow all code alike, so the kernel has
    one part for each kind of work the program does: an interpreter loop,
    object allocation, scalar float arithmetic and small numpy products,
    each about a third of a millisecond.  Each part is timed REPEATS times
    and counts with its least time, so a preemption inside the kernel does
    not count.
    """

    REPEATS = 3

    def __init__(self):
        import numpy as np

        self.np = np
        self.small = np.full((32, 32), 0.01)
        self.parts = (self.loop, self.allocate, self.floats, self.small_products)

    def loop(self):
        acc = 0
        for i in range(3000):
            acc += i * i % 7

    def allocate(self):
        return [_Node(i, [i, i + 1.0], {"i": i}) for i in range(350)]

    def floats(self):
        vel, loc = 1.0, 0.0
        for _ in range(600):
            acc = 0.3 - 0.01 * vel - 1e-4 * vel * vel
            vel = max(0.0, vel + 0.1 * acc)
            loc += 0.1 * vel + 0.005 * acc

    def small_products(self):
        a = self.small
        for _ in range(40):
            a = self.np.tanh(a @ self.small)

    def mark(self) -> tuple[float, float, float]:
        """(start, end, kernel seconds) of one timing."""
        start = time.perf_counter()
        kernel = 0.0
        for part in self.parts:
            best = float("inf")
            for _ in range(self.REPEATS):
                tic = time.perf_counter()
                part()
                best = min(best, time.perf_counter() - tic)
            kernel += best
        return start, time.perf_counter(), kernel


def measure_setup(scenario: Path) -> tuple[float, float]:
    """Process start to validated config, in one fresh interpreter, as
    (wall seconds, kernel times)."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(scenario), str(Path(__file__).parent)],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=60,
    )
    ready, kernel = (float(line) for line in done.stdout.strip().splitlines()[-2:])
    return ready - start, (ready - start) / kernel


def episode_record(m) -> list:
    """Seeded outputs of one episode, the digest's input."""
    return [m.total_reward, m.protect_times, m.overspeed_steps,
            m.traction_energy_kwh, m.regen_energy_kwh, m.run_time_s, m.arrived]


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


class UnitRunner:
    """Runs one unit of a workload: a short seeded training, or one probe episode."""

    def __init__(self, workload: Workload, cfg, trainer, shield):
        self.workload = workload
        self.cfg = cfg
        self.trainer = trainer
        self.unrecoverable = shield.UnrecoverableStateError
        self.budget = cfg.run.resolved_budget(cfg.track)
        self.planned = 1 if workload.probe else cfg.run.resolved_episodes(cfg.run.agent)

    def call(self, subseed: int):
        if self.workload.probe:
            return self.trainer.noise_test(self.cfg, 1.0, episodes=1, seed=subseed)
        return self.trainer.train(self.cfg, subseed).metrics

    def run(self, subseed: int, reference: HostReference | None = None) -> dict:
        """One unit.  With a reference, the kernel is timed before the call,
        at every episode start and every ``mark_steps`` environment steps
        (inside ``TrainEnv.reset`` and ``TrainEnv.step``, outside the
        program's own timers), and after the call."""
        env_class = self.trainer.TrainEnv
        program_reset, program_step = env_class.reset, env_class.step
        marks = []  # (start, end, kernel seconds, episode) of each kernel timing
        env_steps = 0

        def mark(episode: int) -> None:
            marks.append((*reference.mark(), episode))

        def reset(env, *args, **kwargs):
            mark(marks[-1][3] + 1)
            return program_reset(env, *args, **kwargs)

        def step(env, *args, **kwargs):
            nonlocal env_steps
            env_steps += 1
            if env_steps % self.workload.mark_steps == 0:
                mark(marks[-1][3])
            return program_step(env, *args, **kwargs)

        if reference is not None:
            env_class.reset, env_class.step = reset, step
            mark(-1)
        start = time.perf_counter()
        try:
            metrics = self.call(subseed)
            error = None
        except self.unrecoverable as exc:
            metrics, error = [], str(exc)
        finally:
            end = time.perf_counter()
            env_class.reset, env_class.step = program_reset, program_step
        dt = self.cfg.track.dt
        steps = [round(m.run_time_s / dt) for m in metrics]
        problems = [self.check(m, n) for m, n in zip(metrics, steps)]
        select_s = [m.action_select_mean_s * n for m, n in zip(metrics, steps)]
        if reference is None:
            wall, work, select_work = end - start, [], []
        else:
            mark(-1)
            # the work between two timings, and the episode it belongs to
            work = [(b[0] - a[1], (b[0] - a[1]) / ((a[2] + b[2]) / 2), a[3])
                    for a, b in zip(marks, marks[1:])]
            wall = sum(w for w, _, _ in work)
            # an episode's decision time scales as the episode's work does
            select_work = [t * sum(k for _, k, e in work if e == ep)
                           / sum(w for w, _, e in work if e == ep)
                           for ep, t in enumerate(select_s)]
        return {
            "subseed": subseed,
            "wall_s": wall,
            "steps": sum(steps),
            "episode_select_s": select_s,
            "work": [k for _, k, _ in work],
            "select_work": select_work,
            # an aborted unit returns no episode's results: all its episodes fail
            "episodes": self.planned if error else len(metrics),
            "failed": self.planned if error else sum(p is not None for p in problems),
            "errors": [p for p in problems if p is not None] + ([error] if error else []),
            "digest": digest([episode_record(m) for m in metrics] + [error]),
        }

    def check(self, m, steps: int) -> str | None:
        """Correctness gate for one shielded episode; None when it passes."""
        if m.overspeed_steps > 0:
            return f"episode {m.episode}: {m.overspeed_steps} overspeed steps"
        if not 1 <= steps <= self.budget or not 0 <= m.protect_times <= steps:
            return f"episode {m.episode}: {steps} steps, {m.protect_times} interventions"
        if m.traction_energy_kwh < 0.0 or m.regen_energy_kwh > 0.0:
            return f"episode {m.episode}: energy signs {m.traction_energy_kwh}, {m.regen_energy_kwh}"
        return None


def plan(workload: Workload, cfg, seed: int, seconds: float, traced: bool) -> list[list[int]]:
    """Unit seeds in passes, fixed by the workload, seed and seconds alone.

    Every pass runs the same units.  A seeded workload runs distinct short
    trainings drawn from ``seed``, in SEEDED_REPEATS passes.  The others run
    the scenario's own ``run.seeds`` once per pass, in as many passes as fill
    the time.  Under the ledger each unit runs once untraced and once traced
    instead, and a seeded workload makes a single pass.
    """
    if workload.seeded:
        per_unit = workload.unit_s * ((1.0 + workload.traced_cost) if traced else SEEDED_REPEATS)
        units = [seed * 10_000 + k for k in range(max(1, round(seconds / per_unit)))]
        return [units] if traced else [units] * SEEDED_REPEATS
    per_unit = workload.unit_s * ((1.0 + workload.traced_cost) if traced else 1.0)
    return [list(cfg.run.seeds)] * max(1, round(seconds / (per_unit * len(cfg.run.seeds))))


def run_plan(runner: UnitRunner, passes: list[list[int]], seconds: float, ledger=None,
             reference: HostReference | None = None, before_unit=None):
    """Run the plan pass by pass; start no new pass once a stalled host has
    overrun the time by half.  A cut drops repeats, never a unit, so the
    units a run reports and its digest stay the same."""
    deadline = time.perf_counter() + 1.5 * seconds
    records, traced = [], []
    for order in passes:
        if records and time.perf_counter() > deadline:
            break
        for subseed in order:
            if before_unit is not None:
                before_unit()
            if ledger is None:
                records.append(runner.run(subseed, reference))
                continue
            # alternate which twin runs first, so warm-up does not bias the overhead
            for traced_turn in ((False, True) if len(records) % 2 == 0 else (True, False)):
                if traced_turn:
                    with ledger:
                        traced.append(runner.run(subseed))
                else:
                    records.append(runner.run(subseed))
    return records, traced


def unit_costs(records: list[dict]) -> tuple[list[dict], list[str]]:
    """Per unit seed, its cost over its identical repeats, in kernel times.

    Each stretch between two kernel timings, and each episode's decision
    time, counts with its median over the repeats.  A scaled time strays
    both ways, with the noise of the kernel timings, so the least of them
    would follow that noise.
    """
    groups: dict[int, list[dict]] = {}
    for r in records:
        groups.setdefault(r["subseed"], []).append(r)
    units, errors = [], []
    for subseed, reps in groups.items():
        if len({r["digest"] for r in reps}) > 1:
            errors.append(f"repeats of unit seed {subseed} gave different outputs")
        units.append({
            "subseed": subseed,
            "steps": reps[0]["steps"],
            "digest": reps[0]["digest"],
            "wall_s": [r["wall_s"] for r in reps],
            "work": sum(statistics.median(k) for k in zip(*(r["work"] for r in reps))),
            "select_work": sum(statistics.median(k) for k in zip(*(r["select_work"] for r in reps))),
            "best_wall_s": min(r["wall_s"] for r in reps),
            "best_select_s": sum(min(t) for t in zip(*(r["episode_select_s"] for r in reps))),
        })
    return units, errors


def blas_threads() -> int | None:
    import numpy as np

    for lib_path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def context() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "src_py_lines": src_lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    # One BLAS thread, set before numpy loads here and in the set-up children.
    # With the default thread per core, identical work varied by up to 40%
    # between runs on a shared 2-core host; the outputs are bitwise the same.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    import_package()
    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        scenario = write_scenario(workload, Path(tmp))
        from atoshield import shield, trainer
        from atoshield.config import load_config

        load_times = []
        for _ in range(LOAD_REPEATS):
            start = time.perf_counter()
            cfg = load_config(scenario)
            load_times.append(time.perf_counter() - start)

        runner = UnitRunner(workload, cfg, trainer, shield)
        reference = None if args.trace else HostReference()
        passes = plan(workload, cfg, args.seed, args.seconds, bool(args.trace))
        ledger = None
        if args.trace:
            from ledger import Ledger

            ledger = Ledger()
        # Set-up is timed once before every untraced unit, so its repeats
        # spread over the run as the units' do.
        setup = []
        records, traced = run_plan(
            runner, passes, args.seconds, ledger, reference,
            before_unit=None if args.trace else lambda: setup.append(measure_setup(scenario)),
        )
    units, errors = unit_costs(records)

    counted = traced if args.trace else records
    errors += [e for r in counted for e in r["errors"]]
    mismatched = [r["subseed"] for r, t in zip(records, traced) if r["digest"] != t["digest"]]
    if mismatched:
        errors.append(f"traced outputs differ from untraced for subseeds {mismatched}")
    attempted = sum(r["episodes"] for r in counted)
    failed = sum(r["failed"] for r in counted)

    if args.trace:
        from ledger import layer_metrics

        metrics = layer_metrics(
            ledger,
            wall_traced_s=sum(t["wall_s"] for t in traced),
            wall_untraced_s=sum(r["wall_s"] for r in records),
            load_config_ms=min(load_times) * 1e3,
        )
    else:
        steps = sum(u["steps"] for u in units)
        work = sum(u["work"] for u in units)
        select_work = sum(u["select_work"] for u in units)
        unscaled = {  # context: the same figures in the host's own seconds
            "steps_per_s": steps / sum(u["best_wall_s"] for u in units),
            "select_ms": 1e3 * sum(u["best_select_s"] for u in units) / max(steps, 1),
            "setup_s": min(w for w, _ in setup),
        }
        metrics = {
            "steps_per_s": (steps / (REFERENCE_S * work), "1/s"),
            "select_ms": (1e3 * REFERENCE_S * select_work / max(steps, 1), "ms"),
            "setup_s": (REFERENCE_S * statistics.median(k for _, k in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": digest([u["digest"] for u in units]),
        "units": units,
        "errors": errors[:20],
        "unscaled": {} if args.trace else unscaled,
        "context": context(),
    }))
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
