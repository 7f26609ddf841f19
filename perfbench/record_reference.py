"""Record the reference digests that ops are compared against.

    python3 perfbench/record_reference.py

Runs set-up and the first ops of every workload for seeds 0-9 and rewrites
perfbench/reference.json. A change that means to alter the library's
outputs re-records it and says why; any other change must leave every
digest as recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import run  # noqa: E402

SEEDS = range(10)
OPS = {"train_loop": 1, "synth_d128": 3}


def main() -> None:
    run.import_library()
    from perfbench.workloads import WORKLOADS

    reference: dict = {}
    for name, workload_class in WORKLOADS.items():
        for seed in SEEDS:
            workdir = run.TMP_DIR / f"record-{name}-{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                workload = workload_class(seed, workdir)
                workload.setup()
                for index in range(OPS[name]):
                    problems, digest = workload.check(index, workload.op(index))
                    if problems:
                        raise SystemExit(f"{name} seed {seed} op {index}: {problems}")
                    reference.setdefault(name, {}).setdefault(str(seed), {})[str(index)] = digest
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
