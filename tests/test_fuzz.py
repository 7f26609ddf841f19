"""Property tests of the CLI boundaries: mutated inputs get a documented exit code.

Each example writes a small config document with one mutation and drives
``cli.main`` in-process. Whatever the mutation, the exit code is 0, 2, 3 or
4, no exception escapes (pytest turns every numpy warning into one), and a
config error (exit 2) leaves no output directory behind.
"""

import copy
import dataclasses
import json
import math
import tempfile
from pathlib import Path

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from oodsynth.bench import VMF_MAX_KAPPA, BenchConfig, OodTestSpec
from oodsynth.cli import main
from oodsynth.samplers import MAX_STEP_SIZE, HmcConfig, SamplerVariant

# d=4, C=3, 30 points per class, one iteration: small enough for hundreds of runs
BASE = {
    "dim": 4,
    "num_classes": 3,
    "points_per_class": 30,
    "iterations": 1,
    "insert_per_class": 4,
    "id_test_per_class": 10,
    "knn_k": 5,
    "k_detect": 5,
    "hmc": {"rounds": 2},
    "ood": {"n_uniform": 10, "n_midpoint": 10},
}

# fields that set how much is allocated or run: (smallest valid, largest drawn);
# a large valid value would run for minutes, so none is drawn
SIZE_FIELDS = {
    "dim": (2, 6),
    "num_classes": (2, 4),
    "points_per_class": (1, 40),
    "iterations": (1, 2),
    "insert_per_class": (1, 8),
    "id_test_per_class": (1, 20),
    "leapfrog_steps": (1, 4),
    "rounds": (1, 3),
    "n_uniform": (0, 20),
    "n_midpoint": (0, 20),
}
# the edges of every other numeric field's valid range
INT_BOUNDS = {"seed": (0,), "rng_seed": (0,), "knn_k": (1,), "k_detect": (1,), "n_adj": (1,)}
FLOAT_BOUNDS = {
    "cluster_kappa": (0.0, VMF_MAX_KAPPA),
    "midpoint_kappa": (0.0, VMF_MAX_KAPPA),
    "kappa": (0.0,),
    "loss_kappa": (0.0, VMF_MAX_KAPPA),
    "lambda_d": (0.0, VMF_MAX_KAPPA),
    "delta": (0.0,),
    "ema_factor": (0.0, 1.0),
    "step_size": (0.0, MAX_STEP_SIZE),
}
STRINGS = {
    "grad_mode": ("analytic", "scaled", "Analytic", "bogus", ""),
    "variant": (*(v.value for v in SamplerVariant), "rmhmc", ""),
}
WRONG_TYPES = ("3", "abc", "", True, False, None, [], [1], {}, {"a": 1}, 2.5)
SECTION = {f.name: "hmc" for f in dataclasses.fields(HmcConfig)} | {
    f.name: "ood" for f in dataclasses.fields(OodTestSpec)
}
FIELDS = sorted(
    ({f.name for f in dataclasses.fields(BenchConfig)} - {"hmc", "ood", "out_dir"}) | set(SECTION)
)


def _edges(bound: float) -> list[float]:
    """The bound itself and the floats just below and just above it."""
    return [bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]


def _values(name: str) -> st.SearchStrategy:
    wrong = st.sampled_from(WRONG_TYPES)
    if name in SIZE_FIELDS:
        low, high = SIZE_FIELDS[name]
        return st.one_of(st.integers(low, high), st.integers(low - 3, low - 1), wrong)
    if name in INT_BOUNDS:
        (low,) = INT_BOUNDS[name]
        return st.one_of(
            st.integers(low - 2, low + 2), st.sampled_from([2**63, 10**30, -(10**30)]), wrong
        )
    if name in FLOAT_BOUNDS:
        edges = [x for bound in FLOAT_BOUNDS[name] for x in _edges(bound)]
        return st.one_of(st.sampled_from(edges + [math.nan, math.inf, -math.inf, 1e308]), wrong)
    return st.one_of(st.sampled_from(STRINGS[name]), wrong)


def _path(name: str) -> tuple[str, ...]:
    return (SECTION[name], name) if name in SECTION else (name,)


field_mutations = st.sampled_from(FIELDS).flatmap(
    lambda name: st.tuples(st.just(_path(name)), _values(name))
)
unknown_keys = st.tuples(
    st.sampled_from([(), ("hmc",), ("ood",)]).flatmap(
        lambda section: st.sampled_from(
            [(*section, key) for key in ("bogus", "history_window", "Dim", "out")]
        )
    ),
    st.sampled_from([1, "x", None, math.nan]),
)
broken_sections = st.tuples(
    st.sampled_from([("hmc",), ("ood",)]),
    st.sampled_from([5, "x", "ab", None, True, [], [1, 2], ["ab"], [["rounds", 1]], {"": 1}]),
)


def _mutated(path: tuple[str, ...], value) -> dict:
    doc = copy.deepcopy(BASE)
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    return doc


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(field_mutations, unknown_keys, broken_sections))
@example((("ema_factor",), 1.5))
@example((("lambda_d",), 1e308))
def test_run_config_mutations_exit_with_a_documented_code(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        config, out_dir = Path(tmp) / "config.json", Path(tmp) / "run"
        config.write_text(json.dumps(_mutated(*mutation)))
        code = main(["run", "--config", str(config), "--out-dir", str(out_dir)])
        event(f"exit {code}")
        assert code in (0, 2, 3, 4)
        if code == 2:
            assert not out_dir.exists()
