import numpy as np
import pytest

from atoshield.config import default_scenario_path, load_config
from atoshield.drl.nets import Mlp
from atoshield.dynamics import TrackSection, TrainModel, davis_resistance_accel, validate_track


# (loc, vel, cmd) rows that dynamics.step rejects on the default section: a
# command beyond full traction, a negative speed, a position before the start
# and one past the end, then a NaN command, speed and position, which fail
# every comparison and so must fail each range check
NAN = float("nan")
BAD_STEP_INPUTS = [(100.0, 30.0, 1.5), (100.0, -1.0, 0.0), (-1.0, 30.0, 0.0), (1500.5, 30.0, 0.0),
                   (100.0, 30.0, NAN), (100.0, NAN, 0.0), (NAN, 30.0, 0.0)]


def make_model(**kw) -> TrainModel:
    return TrainModel(**kw)


def make_track(
    length=1500.0,
    limits=((0.0, 500.0, 80.0), (500.0, 1000.0, 60.0), (1000.0, 1500.0, 80.0)),
    grades=None,
    scheduled_time=110.0,
    dt=1.0,
    **kw,
) -> TrackSection:
    if grades is None:
        grades = ((0.0, length, 0.0),)
    return TrackSection(
        length=length,
        limit_segments=limits,
        grade_segments=grades,
        scheduled_time=scheduled_time,
        dt=dt,
        **kw,
    )


def seeded_sections(seed: int, count: int) -> list[TrackSection]:
    """``count`` valid sections drawn from ``default_rng(seed)``: 2-4 limit
    segments of 30-100 km/h and 1-3 grade segments, at times one as steep
    downhill as validation allows, with a schedule at 60% of the mean limit."""
    rng = np.random.default_rng(seed)
    steepest = davis_resistance_accel(make_model(), 0.0)

    def edges(n, length):
        cuts = np.sort(rng.choice(np.arange(1, 10), n - 1, replace=False)) / 10.0
        return [0.0, *(cuts * length), length]

    sections = []
    while len(sections) < count:
        length = rng.uniform(600.0, 2500.0)
        limit_edges = edges(rng.integers(2, 5), length)
        limits = rng.uniform(30.0, 100.0, len(limit_edges) - 1)
        grade_edges = edges(rng.integers(1, 4), length)
        grades = [steepest if rng.random() < 0.2 else rng.uniform(-0.3, 0.008)
                  for _ in grade_edges[1:]]
        mean_limit = sum(lim * (e - s) for s, e, lim in zip(limit_edges, limit_edges[1:], limits))
        mean_limit /= length
        track = make_track(
            length=length,
            limits=tuple(zip(limit_edges, limit_edges[1:], map(float, limits))),
            grades=tuple(zip(grade_edges, grade_edges[1:], map(float, grades))),
            scheduled_time=length / (0.6 * mean_limit / 3.6),
        )
        if validate_track(make_model(), track) == []:
            sections.append(track)
    return sections


def wider_state_nets(agent, rng) -> dict:
    """``to_dict`` blobs of nets shaped as ``agent``'s, but each reading one
    more state column."""
    return {name: Mlp([net.layer_sizes[0] + 1, *net.layer_sizes[1:]], net.output_activation,
                      rng).to_dict()
            for name, net in agent.named_nets().items()}


@pytest.fixture(scope="session")
def default_cfg():
    return load_config(default_scenario_path())


@pytest.fixture()
def model():
    return make_model()


@pytest.fixture()
def track():
    return make_track()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
