"""The solver's random start (``normals._standard_normals``): numpy's seeded Generator stream,
bit for bit, drawn without importing numpy's random package."""

import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

import beamsparse.normals as normals_mod
from beamsparse import AngleGrid, ArrayGeometry, SolverParams, build_steering_set, initial_state
from beamsparse.arrays import _project_unit_sphere

SEEDS = [*range(2000), 2**32 - 1, 2**32, 2**63 - 1]


@pytest.fixture
def branches(monkeypatch):
    """Counts of the ziggurat's slow branches in the draws the test makes: the module calls
    math.exp only in the wedge test and math.log1p only in the tail of layer 0."""
    calls = {"exp": 0, "log1p": 0}

    def counted(name):
        function = getattr(math, name)

        def call(x):
            calls[name] += 1
            return function(x)
        return call

    monkeypatch.setattr(normals_mod, "math", SimpleNamespace(exp=counted("exp"),
                                                             log1p=counted("log1p")))
    return calls


def numpy_start(n, seed):
    """initial_state's v and w as they were drawn by numpy's Generator: four calls of n."""
    rng = np.random.default_rng(seed)

    def draw():
        return _project_unit_sphere(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return draw(), draw()


def test_initial_state_is_numpys_generator_bit_for_bit(branches):
    grid = AngleGrid.uniform(-90, 90, 1.0)
    for n in (2, 30, 256):  # the smallest array has two elements
        steering = build_steering_set(ArrayGeometry(n), grid)
        for seed in SEEDS:
            state = initial_state(steering, SolverParams(seed=seed))
            v, w = numpy_start(n, seed)
            assert np.array_equal(state.v.view(np.uint64), v.view(np.uint64)), (n, seed)
            assert np.array_equal(state.w.view(np.uint64), w.view(np.uint64)), (n, seed)
    # about 1 draw in 100 takes the wedge test and 3 in 10,000 the tail
    assert branches["exp"] > 0 and branches["log1p"] > 0


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, 10**30,
                                  2**128 - 1])
def test_seeding_is_numpys_seed_sequence_and_pcg64(seed):
    # one to four 32-bit words of entropy, a full pool of four from 2**96 on
    state = np.random.PCG64(seed).state["state"]
    assert normals_mod._pcg64_state(seed) == (state["state"], state["inc"])
    assert np.array_equal(normals_mod._standard_normals(seed, 500).view(np.uint64),
                          np.random.default_rng(seed).standard_normal(500).view(np.uint64))


def test_stored_draws_of_seed_0(branches):
    # independent of the numpy installed: if numpy's stream ever changes, the comparisons
    # with numpy fail and this does not, which shows that numpy moved and not the package
    draws = normals_mod._standard_normals(0, 1000)
    assert [x.hex() for x in draws[:4]] == [
        "0x1.017ed89db8441p-3", "-0x1.0e8cfe9bd45ccp-3", "0x1.47e57a468b06dp-1",
        "0x1.adabbec84d4f0p-4"]
    assert hashlib.sha256(draws.tobytes()).hexdigest() == (
        "cc0b03e91cf55ab725aaa2be63067b7bc76f08787209974cb1e275aad78b4d8e")
    assert branches == {"exp": 12, "log1p": 4}

