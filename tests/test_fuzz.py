"""Property tests of the CLI boundaries: mutated inputs get a documented exit code.

Each example writes a small input with one mutation, a ``run --config``
document, the IDSTORE1 bytes of a ``synth --store`` file or the score files
of ``score``, and drives ``cli.main`` in-process. Whatever the mutation, the
exit code is 0, 2, 3 or 4, no exception escapes (pytest turns every numpy
warning into one), a config error (exit 2) leaves no output directory
behind, a run that exits 0 writes no ``nan`` cell in ``metrics.csv``, and a
score that exits 0 prints no ``nan``.
"""

import contextlib
import copy
import csv
import dataclasses
import functools
import io
import json
import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from oodsynth.bench import VMF_MAX_KAPPA, BenchConfig, OodTestSpec, generate_synthetic_id
from oodsynth.cli import main
from oodsynth.samplers import MAX_STEP_SIZE, HmcConfig, SamplerVariant
from oodsynth.store import MAX_CLASSES, MAX_DIM, MAX_PROTOTYPE_ENTRIES

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
# a large valid value would run for minutes, so none is drawn; OVERSIZED ones, past
# every bound, are drawn for each field but leapfrog_steps, which sizes no array
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
OVERSIZED = (2**40, 2**63)
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
        sizes = [st.integers(low, high), st.integers(low - 3, low - 1), wrong]
        if name != "leapfrog_steps":
            sizes.append(st.sampled_from(OVERSIZED))
        return st.one_of(*sizes)
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
@example((("step_size",), 1e77))  # every proposal is rejected: an empty batch
def test_run_config_mutations_exit_with_a_documented_code(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        config, out_dir = Path(tmp) / "config.json", Path(tmp) / "run"
        config.write_text(json.dumps(_mutated(*mutation)))
        code = main(["run", "--config", str(config), "--out-dir", str(out_dir)])
        event(f"exit {code}")
        assert code in (0, 2, 3, 4)
        if code == 2:
            assert not out_dir.exists()
        if code == 0:
            with open(out_dir / "metrics.csv", newline="") as fh:
                cells = [cell for row in csv.reader(fh) for cell in row]
            assert "nan" not in cells


# -- IDSTORE1 bytes behind synth --store ---------------------------------------

@functools.cache
def _store_bytes() -> bytes:
    """A valid d=4, C=3 store of 30 rows per class, saved once."""
    cfg = BenchConfig(**{k: v for k, v in BASE.items() if k not in ("hmc", "ood")})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.idstore"
        generate_synthetic_id(cfg).save(path)
        return path.read_bytes()


# IDSTORE1 offsets: the uint32 counts C, d and B follow the 8-byte magic;
# each class record then starts with its uint32 row count and uint8
# prototype flag (d=4, 30 rows, a prototype: 5 + 8 * 4 * 31 bytes a record)
HEADER_COUNTS = {"C": 8, "d": 12, "B": 16}
RECORD = 5 + 8 * 4 * 31
SIZE = 28 + 3 * RECORD
RECORD_FIELDS = {
    f"class {c} {name}": (28 + c * RECORD + at, fmt)
    for c in range(3)
    for name, at, fmt in (("rows", 0, "<I"), ("has_prototype", 4, "<B"))
}
COUNT_VALUES = st.one_of(
    st.sampled_from([0, 1, 2, 3, 4, 5, 29, 30, 31, 255, 2**31, 2**32 - 1]),
    st.integers(0, 2**32 - 1),
)

bit_flips = st.tuples(
    st.just("flip"), st.lists(st.integers(0, 8 * SIZE - 1), min_size=1, max_size=3)
)
truncations = st.tuples(st.just("truncate"), st.integers(0, SIZE - 1))
count_rewrites = st.tuples(
    st.just("rewrite"),
    st.sampled_from(
        [(at, "<I") for at in HEADER_COUNTS.values()] + list(RECORD_FIELDS.values())
    ),
    COUNT_VALUES,
)

# a store saved before any insert: a header and C records of no rows and no
# prototype, 28 + 5 C bytes that name any d
empty_stores = st.tuples(st.just("empty"), st.integers(2, 64), COUNT_VALUES)


def _mutated_store(mutation) -> bytes:
    kind, *args = mutation
    if kind == "empty":
        classes, dim = args
        header = b"IDSTORE1" + struct.pack("<IIId", classes, dim, 30, 0.95)
        return header + struct.pack("<IB", 0, 0) * classes
    raw = bytearray(_store_bytes())
    assert len(raw) == SIZE
    if kind == "flip":
        for bit in args[0]:
            raw[bit // 8] ^= 1 << (bit % 8)
    elif kind == "truncate":
        del raw[args[0] :]
    else:
        (at, fmt), value = args
        struct.pack_into(fmt, raw, at, value % (1 << (8 * struct.calcsize(fmt))))
    return bytes(raw)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(bit_flips, truncations, count_rewrites, empty_stores))
@example(("flip", []))  # the valid store itself
@example(("empty", 3, 2**20))  # 43 bytes that once sized 50 MB of prototypes
@example(("empty", 40, 2**16))  # 228 bytes that once sized 42 MB of prototypes and snapshot
@example(("empty", 2**19, 2))  # 2.6 MB of empty records that once peaked at 236 MB to load
@example(("rewrite", (HEADER_COUNTS["d"], "<I"), 2**32 - 1))
@example(("rewrite", RECORD_FIELDS["class 2 rows"], 0))
# the top exponent bit of a prototype coordinate and of a row coordinate:
# each becomes about 4e307, whose square overflows the norm's unit check
@example(("flip", [(28 + 5 + 7) * 8 + 6]))
@example(("flip", [(28 + 5 + 32 + 7) * 8 + 6]))
def test_synth_store_mutations_exit_with_a_documented_code(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        store, out = Path(tmp) / "s.idstore", Path(tmp) / "b.json"
        store.write_bytes(_mutated_store(mutation))
        oversized = mutation[0] == "empty" and (
            mutation[1] > MAX_CLASSES
            or mutation[2] > MAX_DIM
            or mutation[1] * mutation[2] > MAX_PROTOTYPE_ENTRIES
        )
        if oversized:
            tracemalloc.start()
        try:
            code = main(["synth", "--store", str(store), "--out", str(out)])
        finally:
            if oversized:
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
        event(f"exit {code}")
        assert code in (0, 2, 3, 4)
        assert out.exists() == (code == 0)
        if oversized:  # the header's C and d are refused before anything is sized by them
            assert code == 3
            assert peak < 2**20


# -- score files behind score ------------------------------------------------------

# a cell of a score file other than a finite float: JSON values and CSV text
BAD_JSON_VALUES = (
    math.nan, math.inf, -math.inf, True, False, None, "0.5", "", [], [1.0], {}, {"a": 1.0},
    10**400, 1e308, -1e308,
)
BAD_CSV_CELLS = ("nan", "NaN", "inf", "-inf", "1e400", "abc", "", " ", "0x10", "1_0", "--1")

finite_scores = st.lists(st.floats(-1e3, 1e3), min_size=20, max_size=30)
json_mutations = st.one_of(
    st.tuples(st.just("none")),
    st.tuples(st.just("value"), st.integers(0, 29), st.sampled_from(BAD_JSON_VALUES)),
    st.tuples(st.just("document"), st.sampled_from(BAD_JSON_VALUES + ([[1.0, 2.0]], [[1.0], 2.0]))),
    st.tuples(st.just("key"), st.sampled_from(["scores", "ID_SCORES", ""])),
)
csv_mutations = st.one_of(
    st.tuples(st.just("none")),
    st.tuples(st.just("value"), st.integers(0, 29), st.sampled_from(BAD_CSV_CELLS)),
    st.tuples(st.just("ragged"), st.integers(0, 29), st.lists(st.sampled_from(["1.0", "x", ""]))),
    st.tuples(st.just("header"), st.sampled_from(["score", "1.0", "nan", "", "a,b,c"])),
)
score_files = st.one_of(
    st.tuples(st.sampled_from(["json list", "json object"]), finite_scores, json_mutations),
    st.tuples(st.just("csv"), finite_scores, csv_mutations),
)


def _score_file(directory: Path, key: str, spec) -> Path:
    """One score file: ``spec`` is (format, scores, mutation)."""
    form, scores, (kind, *args) = spec
    if form == "csv":
        rows = [[repr(v)] for v in scores]
        if kind == "value" and args[0] < len(rows):
            rows[args[0]] = [args[1]]
        elif kind == "ragged" and args[0] < len(rows):  # extra cells, or an empty row
            rows[args[0]] = rows[args[0]] + args[1] if args[1] else []
        elif kind == "header":
            rows.insert(0, args[0].split(","))
        path = directory / f"{key}.csv"
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        return path
    doc = list(scores)
    if kind == "value" and args[0] < len(doc):
        doc[args[0]] = args[1]
    elif kind == "document":
        doc = args[0]
    if form == "json object":
        doc = {args[0] if kind == "key" else key: doc}
    path = directory / f"{key}.json"
    path.write_text(json.dumps(doc))
    return path


@settings(max_examples=200, deadline=None, derandomize=True)
@given(score_files, score_files)
@example(("json list", [0.5] * 20, ("value", 3, 10**400)), ("csv", [0.1] * 20, ("none",)))
@example(("csv", [0.5] * 20, ("value", 3, "nan")), ("json object", [0.1] * 20, ("none",)))
def test_score_file_mutations_exit_with_a_documented_code(id_spec, ood_spec):
    with tempfile.TemporaryDirectory() as tmp:
        id_path = _score_file(Path(tmp), "id_scores", id_spec)
        ood_path = _score_file(Path(tmp), "ood_scores", ood_spec)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(io.StringIO()):
            code = main(["score", "--id-scores", str(id_path), "--ood-scores", str(ood_path)])
        event(f"exit {code}")
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert "nan" not in printed.getvalue().lower()
