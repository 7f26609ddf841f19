import json

import pytest

from oodsynth.cli import main
from oodsynth.digest import artifact_digests, combined_digest


def test_digest_prints_one_sorted_line_per_artifact_then_one_over_all(tmp_path, capsys):
    # that reruns, BLAS threads and kernels give one digest, and another seed
    # another, is asserted by tests/test_cli_contract.py
    assert main(["run", "--trace", "--iterations", "1", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["digest", str(tmp_path)]) == 0
    *lines, last = capsys.readouterr().out.splitlines()
    digests = dict(reversed(line.split("  ", 1)) for line in lines)
    names = list(digests)
    assert names == sorted(names) and "timings.json" not in names and "config.json" in names
    assert digests == artifact_digests(tmp_path)
    assert last == f"{combined_digest(digests)}  (all {len(names)} artifacts)"


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
