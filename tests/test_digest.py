import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oodsynth
from oodsynth.cli import main
from oodsynth.digest import artifact_digests, combined_digest

SRC = Path(oodsynth.__file__).resolve().parents[1]


def stock_run(out: Path, *flags: str) -> Path:
    assert main(["run", "--trace", "--out-dir", str(out), *flags]) == 0
    return out


def digest_lines(directory: Path, capsys) -> list[str]:
    capsys.readouterr()
    assert main(["digest", str(directory)]) == 0
    return capsys.readouterr().out.splitlines()


def test_two_reruns_of_a_stock_run_give_one_digest_and_another_seed_another(tmp_path, capsys):
    a = digest_lines(stock_run(tmp_path / "a"), capsys)
    b = digest_lines(stock_run(tmp_path / "b"), capsys)
    assert a == b  # config.json names another out_dir, and timings.json differs
    names = [line.split("  ", 1)[1] for line in a[:-1]]
    assert names == sorted(names) and "timings.json" not in names and "config.json" in names
    assert a[-1].endswith(f"(all {len(names)} artifacts)")
    other = digest_lines(stock_run(tmp_path / "c", "--seed", "1"), capsys)
    assert other[-1] != a[-1]


def test_one_and_two_blas_threads_give_one_digest(tmp_path):
    outputs = []
    for threads in ("1", "2"):
        env = os.environ | {"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads}
        out = tmp_path / f"threads-{threads}"
        run = [sys.executable, "-m", "oodsynth", "run", "--iterations", "3", "--out-dir", str(out)]
        subprocess.run(run, env=env, check=True, capture_output=True, timeout=300)
        digest = [sys.executable, "-m", "oodsynth", "digest", str(out)]
        done = subprocess.run(digest, env=env, check=True, capture_output=True, text=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def test_only_the_ignored_bytes_leave_the_digest_alone(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--axis", "L", "--values", "1,2", "--iterations", "1",
                 "--out-dir", str(out)]) == 0
    before = artifact_digests(out)
    assert "L_1/config.json" in before and "sweep.csv" in before
    assert not any(name.endswith("timings.json") for name in before)
    (out / "L_1" / "timings.json").write_text(json.dumps({"synth_time_ms": [1e9]}))
    config = json.loads((out / "L_2" / "config.json").read_text())
    (out / "L_2" / "config.json").write_text(json.dumps(config | {"out_dir": "elsewhere"}))
    table = (out / "sweep.csv").read_text().splitlines()
    cells = [row.split(",") for row in table]
    column = cells[0].index("synth_time_ms")
    for row in cells[1:]:
        row[column] = "123456.0"
    (out / "sweep.csv").write_text("\n".join(",".join(row) for row in cells) + "\n")
    assert artifact_digests(out) == before
    # any other byte does count
    config["lambda_d"] = 0.2
    (out / "L_2" / "config.json").write_text(json.dumps(config))
    changed = artifact_digests(out)
    assert [name for name in before if changed[name] != before[name]] == ["L_2/config.json"]
    assert combined_digest(changed) != combined_digest(before)


def test_a_missing_directory_exits_3(tmp_path, capsys):
    assert main(["digest", str(tmp_path / "missing")]) == 3
    assert "no artifact directory" in capsys.readouterr().err


def test_an_unreadable_config_exits_3(tmp_path, capsys):
    (tmp_path / "config.json").write_text("{not json")
    assert main(["digest", str(tmp_path)]) == 3
    assert "config.json" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["metrics.csv", "timings.json"])
def test_an_empty_directory_and_a_skipped_file_have_the_digest_of_nothing(tmp_path, name):
    empty = combined_digest(artifact_digests(tmp_path))
    (tmp_path / name).write_text("x")
    got = combined_digest(artifact_digests(tmp_path))
    assert (got == empty) == (name == "timings.json")
