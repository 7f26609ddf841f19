"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload synth_d128 --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory, never from an installed copy. Set-up runs once, one
untimed warm-up op follows, then ops run back to back, one at a time,
until ``--seconds`` have passed. ``setup_s`` is the median of that set-up
and of further set-ups timed between ops. Each op's output is checked
outside its timed region; a failed check or a raised exception counts as
a failed op. BLAS keeps the machine's default thread count, which is
recorded with the environment.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced ops (spans around each library layer, see layers.py)
and prints the per-layer metrics. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The full
result, with per-op samples and the environment, and the spans of a traced
run are written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import environment, stats  # noqa: E402
from perfbench.layers import PER_LAYER, WRAPS, per_layer_metrics  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402

SETUP_REPEATS = 9
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"
REFERENCE_TOL = 1e-6

E2E_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "cpu_s_p50": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def import_library() -> None:
    """Put the checkout's sources first on the path and import them from there."""
    if not (SRC / "oodsynth" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources at {SRC / 'oodsynth'}")
    sys.path.insert(0, str(SRC))
    import oodsynth

    if Path(oodsynth.__file__).resolve().parent != (SRC / "oodsynth").resolve():
        raise SystemExit(f"perfbench: imported oodsynth from {oodsynth.__file__}, not {SRC}")


def matches_reference(got, want) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            matches_reference(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            matches_reference(g, w) for g, w in zip(got, want)
        )
    if isinstance(want, float):
        return isinstance(got, float) and abs(got - want) <= REFERENCE_TOL
    return got == want


class Run:
    """One process, one workload, one client."""

    def __init__(self, workload, seconds: float, trace: bool):
        self.workload = workload
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        reference = json.loads((HERE / "reference.json").read_text())
        self.reference = reference.get(workload.name, {}).get(str(workload.seed), {})
        self.samples: list[dict] = []
        self.problems: list[str] = []
        self.setup_times: list[float] = []

    def set_up(self) -> None:
        """Set up the workload the ops use, then run one untimed warm-up op."""
        with self.tracer.recording("setup", WRAPS) if self.tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            self.workload.setup()
            self.setup_times.append(time.perf_counter() - t0)
        self.workload.warm_up()

    def _time_spare_set_up(self) -> None:
        """Time one more set-up on a fresh workload object and discard it."""
        spare = type(self.workload)(self.workload.seed, self.workload.workdir)
        t0 = time.perf_counter()
        spare.setup()
        self.setup_times.append(time.perf_counter() - t0)

    def measure(self) -> None:
        """Run ops until the time is up.

        Untraced runs also time SETUP_REPEATS set-ups, spread evenly over
        the run between ops, so that set-up meets the same slow and fast
        periods of a shared host as the ops do.
        """
        min_ops = 2 if self.tracer else 1  # a traced run needs one op of each kind
        repeats = 1 if self.tracer else SETUP_REPEATS
        start = time.perf_counter()
        index = 0
        while index < min_ops or time.perf_counter() - start < self.seconds:
            traced = self.tracer is not None and index % 2 == 1
            recording = self.tracer.recording(index, WRAPS) if traced else contextlib.nullcontext()
            output = None
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                with recording:
                    output = self.workload.op(index)
            except Exception:
                traceback.print_exc()
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            self.samples.append(
                {"index": index, "traced": traced, "wall_s": wall, "cpu_s": cpu, "items": 0}
            )
            self._check(index, output)
            index += 1
            elapsed = time.perf_counter() - start
            while len(self.setup_times) < repeats and elapsed >= (
                len(self.setup_times) * self.seconds / repeats
            ):
                self._time_spare_set_up()
        while len(self.setup_times) < repeats:
            self._time_spare_set_up()

    def _check(self, index: int, output) -> None:
        sample = self.samples[-1]
        if output is None:
            problems = ["op raised"]
        else:
            try:
                sample["items"] = self.workload.items(output)
                problems, digest = self.workload.check(index, output)
            except Exception as err:
                traceback.print_exc()
                problems = [f"check raised {type(err).__name__}: {err}"]
            else:
                want = self.reference.get(str(index))
                if want is not None and not matches_reference(digest, want):
                    problems.append(f"digest {digest} differs from reference {want}")
        sample["ok"] = not problems
        self.problems += [f"op {index}: {p}" for p in problems]


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    wl, samples, setup_times = run.workload, run.samples, run.setup_times
    walls = [s["wall_s"] for s in samples]
    cpus = [s["cpu_s"] for s in samples]
    items = sum(s["items"] for s in samples)
    rates = [s["items"] / s["wall_s"] for s in samples]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": stats.median(setup_times),
        "op_s_p50": stats.median(walls),
        "cpu_s_p50": stats.median(cpus),
        "items_per_s": stats.median(rates),
        "peak_rss_mb": peak_rss_mb,
    }
    n = len(walls)
    lines = [
        f"setup_s = {metrics['setup_s']:.4f} s (median of {len(setup_times)})",
        f"{wl.op_name}_p50 = {metrics['op_s_p50']:.4f} s (n={n})",
    ]
    p = 90 if stats.tail(walls, 90) is not None else stats.highest_tail(n)
    if p is None:
        lines.append(f"{wl.op_name} tail: none (n={n}; a tail needs 10 samples beyond it)")
    else:
        lines.append(f"{wl.op_name}_p{p} = {stats.tail(walls, p):.4f} s (n={n})")
    failed = sum(not s["ok"] for s in samples)
    lines += [
        f"{wl.items_name}_p50 = {metrics['items_per_s']:.4f} 1/s (n={n}; {items} items in {sum(walls):.2f} s)",
        f"cpu_s_p50 = {metrics['cpu_s_p50']:.4f} s (n={n})",
        f"peak_rss_mb = {peak_rss_mb:.1f} MB",
        f"error_rate = {failed / n:.4f} ({failed} of {n} ops failed)",
    ]
    return metrics, lines


def per_layer(run: Run) -> tuple[dict, list[str]]:
    tracer = run.tracer
    traced = [s for s in run.samples if s["traced"]]
    untraced = [s for s in run.samples if not s["traced"]]
    ops = tracer.summary([s["index"] for s in traced])
    values = per_layer_metrics(
        ops=ops,
        setup=tracer.summary(["setup"]),
        setup_s=run.setup_times[0],
        traced_op_s=stats.median([s["wall_s"] for s in traced]),
        untraced_op_s=stats.median([s["wall_s"] for s in untraced]),
        absent=len(tracer.absent),
    )
    self_s = sum(v for k, v in ops.items() if k.endswith(".s"))
    mean_wall = sum(s["wall_s"] for s in traced) / len(traced)
    lines = [
        f"traced ops: {len(traced)}, untraced ops: {len(untraced)}",
        f"self times sum to {self_s:.4f} s per traced op; its recorded wall is {mean_wall:.4f} s",
    ]
    lines += [f"absent wrap: {name}" for name in sorted(tracer.absent)]
    return values, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_library()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = environment.environment(ROOT, SRC)
    TMP_DIR.mkdir(exist_ok=True)
    workdir = TMP_DIR / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        ticks = environment.cpu_ticks()
        run = Run(WORKLOADS[args.workload](args.seed, workdir), args.seconds, bool(args.trace))
        run.set_up()
        run.measure()
        env["steal_share"] = environment.steal_share(ticks, environment.cpu_ticks())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values, lines = per_layer(run)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values, lines = end_to_end(run)
        units = E2E_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    failed = sum(not s["ok"] for s in run.samples)
    result = {
        "correct": failed == 0,
        "attempted": len(run.samples),
        "failed": failed,
        "metrics": metrics,
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"args": vars(args), "environment": env, "samples": run.samples}
    detail |= {"setup_s": run.setup_times, "problems": run.problems, "result": result}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if run.tracer:
        run.tracer.write_csv(OUT_DIR / f"{stem}-spans.csv")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for problem in run.problems:
        print(f"check failed: {problem}")
    for line in lines:
        print(line)
    if args.trace:
        for name, metric in metrics.items():
            print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
