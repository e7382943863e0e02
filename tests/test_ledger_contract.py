"""The per-layer ledger of ``benchmarks/ledger.py`` against the package.

The ledger wraps package functions and methods by name, so renaming or
deleting one of them breaks every traced benchmark run.  These tests install
it the way a traced run does: every name it wraps must resolve, uninstalling
must put every original back, and a built correction tree must still walk.
The run harness's host-speed marks sit in ``TrainEnv.reset`` and
``TrainEnv.step``, so every episode must reset and step through them.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from atoshield import search_tree
from atoshield.config import default_scenario_path, load_config
from atoshield.drl import agents, buffers, nets
from atoshield.dynamics import OperationState
from atoshield.search_tree import SearchConfig, build_tree, prune
from atoshield.shield import SafetySpec, safe_action_set
from atoshield.trainer import TrainEnv, noise_test, train

from conftest import make_model, make_track

LEDGER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger.py"


@pytest.fixture(scope="module")
def ledger_module():
    name = "atoshield_benchmark_ledger"
    spec = importlib.util.spec_from_file_location(name, LEDGER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def package_bindings() -> dict:
    """Every attribute of every loaded package module and wrapped class, by owner and name."""
    owners = [m for n, m in sys.modules.items() if n == "atoshield" or n.startswith("atoshield.")]
    owners += [nets.Mlp, nets.Adam, agents.DdpgAgent, agents.SacAgent,
               buffers.ReplayBuffer, buffers.EliteBuffer]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_every_wrapped_name_resolves(ledger_module):
    functions, methods = ledger_module.Ledger()._targets()
    for module, name, layer, _ in functions:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
        assert layer in ledger_module.LAYERS
    for cls, name, layer, _ in methods:
        assert callable(cls.__dict__.get(name)), f"{cls.__name__}.{name}"
        assert layer in ledger_module.LAYERS


def test_uninstall_restores_every_original(ledger_module):
    before = package_bindings()
    ledger = ledger_module.Ledger()
    ledger.install()
    try:
        installed = package_bindings()
        changed = {key for key in before if installed[key] is not before[key]}
        functions, methods = ledger._targets()
        assert len(changed) >= len(functions) + len(methods)
        assert all(hasattr(installed[key], "__wrapped__") for key in changed)
    finally:
        ledger.uninstall()
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_built_tree_walks_under_the_ledger(ledger_module):
    model, track, spec = make_model(), make_track(), SafetySpec()
    env = TrainEnv(model, track)
    state = OperationState(loc=100.0, vel=30.0)
    safe_set = safe_action_set(spec, model, track, state, 9)
    cfg = SearchConfig(expansion_width=2)

    def sampler(states, n):
        return np.full((len(states), n), 0.5)

    def walk(node) -> int:
        return sum(1 + walk(child) for child in node.children)

    horizon = 4  # step 0 at a t_up of 5: four steps before the next update
    tree = build_tree(env, spec, sampler, state, safe_set, horizon, cfg)
    built = sum(len(level) for level in tree.levels)
    assert walk(tree) == built > len(safe_set)
    kept = sum(int(level.alive.sum()) for level in prune(tree).levels)
    assert walk(tree) == kept > 0

    with ledger_module.Ledger() as ledger:
        choice = search_tree.search_safe_action(env, spec, sampler, state, safe_set, horizon, cfg)
    assert choice in safe_set
    assert ledger.stats["search_tree.search_safe_action"].calls == 1
    assert ledger.stats["search_tree.build_tree"].calls == 1
    assert ledger.counters["nodes_built"] == built
    assert ledger.counters["nodes_kept"] > 0
    assert ledger.counters["fallbacks"] == 0


def test_tree_search_makes_no_dynamics_step_call(ledger_module):
    # the tree steps roots and levels on dynamics._kinematics and prices on
    # dynamics._price, so the ledger's dynamics.step count is environment
    # steps alone
    model, track, spec = make_model(), make_track(), SafetySpec()
    env = TrainEnv(model, track)
    state = OperationState(loc=100.0, vel=30.0)
    safe_set = safe_action_set(spec, model, track, state, 9)
    args = (env, spec, lambda states, n: np.full((len(states), n), 0.5), state, safe_set, 4,
            SearchConfig(expansion_width=2))
    with ledger_module.Ledger() as ledger:
        before = ledger.stats["dynamics.step"].calls
        search_tree.build_tree(*args)
        assert ledger.stats["dynamics.step"].calls == before
        assert search_tree.search_safe_action(*args) in safe_set
        assert ledger.stats["dynamics.step"].calls == before
    assert ledger.stats["search_tree.build_tree"].calls == 2
    assert ledger.counters["nodes_built"] > 2 * len(safe_set) > 2
    assert ledger.counters["fallbacks"] == 0


@pytest.mark.parametrize("run", ["noise_test", "train"])
def test_every_episode_resets_and_steps_through_train_env(monkeypatch, run):
    # benchmarks/run.py places its host-speed marks by patching TrainEnv.reset
    # and TrainEnv.step on the class: an episode that reset or stepped any
    # other way would run outside its marks
    calls = {"reset": 0, "step": 0}
    for name in calls:
        method = getattr(TrainEnv, name)

        def counted(env, *args, _name=name, _method=method, **kwargs):
            calls[_name] += 1
            return _method(env, *args, **kwargs)

        monkeypatch.setattr(TrainEnv, name, counted)
    cfg = load_config(default_scenario_path())
    cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, max_episodes=1, agent="ssa_ddpg"))
    metrics = noise_test(cfg, 1.0, episodes=1) if run == "noise_test" else train(cfg, 0).metrics
    assert len(metrics) == 1
    assert calls == {"reset": 1, "step": round(metrics[0].run_time_s / cfg.track.dt)}
