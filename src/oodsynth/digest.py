"""sha256 digests of the deterministic artifacts under a directory.

A run, synth or sweep directory is byte-identical across invocations but
for three things, which ``artifact_digests`` leaves out, here and nowhere
else: every ``timings.json`` (wall-clock times) is skipped, every
``config.json`` is hashed without its ``out_dir`` (the directory it was
written to), and every ``sweep.csv`` is hashed without its
``synth_time_ms`` column. ``oodsynth digest DIR`` prints the result.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

from .errors import DataError

SKIPPED = ("timings.json",)


def _deterministic_bytes(path: Path) -> bytes:
    """The bytes of an artifact that do not depend on the wall clock or the output path."""
    data = path.read_bytes()
    if path.name == "config.json":
        doc = json.loads(data)
        if isinstance(doc, dict):
            doc.pop("out_dir", None)
        return json.dumps(doc, sort_keys=True, indent=2).encode()
    if path.name == "sweep.csv":
        rows = list(csv.reader(io.StringIO(data.decode())))
        if rows and "synth_time_ms" in rows[0]:
            drop = rows[0].index("synth_time_ms")
            rows = [row[:drop] + row[drop + 1 :] for row in rows]
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(rows)
        return text.getvalue().encode()
    return data


def artifact_digests(directory: str | Path) -> dict[str, str]:
    """sha256 hex of each deterministic artifact under ``directory``, by relative path, sorted.

    A directory that does not exist is a DataError.
    """
    root = Path(directory)
    if not root.is_dir():
        raise DataError(f"no artifact directory {root}")
    digests = {}
    for path in root.rglob("*"):
        if path.is_file() and path.name not in SKIPPED:
            try:
                data = _deterministic_bytes(path)
            except (OSError, ValueError) as err:  # ValueError: a config.json that is not JSON
                raise DataError(f"cannot read artifact {path}: {err}") from err
            digests[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return dict(sorted(digests.items()))


def combined_digest(digests: dict[str, str]) -> str:
    """One sha256 over every artifact's digest and relative path."""
    lines = "".join(f"{digest}  {name}\n" for name, digest in digests.items())
    return hashlib.sha256(lines.encode()).hexdigest()
