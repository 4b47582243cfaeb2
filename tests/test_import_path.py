"""Importing the CLI, and running its commands, loads no scipy module and
no process-pool machinery.

numpy is the engine's only runtime dependency; scipy is a test-time
reference. Every command pays its imports before it starts, and a scipy
subpackage costs each run from 0.3 s (``scipy.ndimage``) to over a
second (``scipy.signal``, which brings ``scipy.stats``). ``label``,
``sweep`` and ``evaluate`` fork their child with ``os.fork`` and share
jobs with it through pipes (``cli._job_queue``), so ``multiprocessing``,
``concurrent.futures`` and ``subprocess`` stay out of the import too.
The modules are checked after the import, and again after ``label`` on
pose and rate rows (which runs the smoothing) and ``sweep``, so that an
import made lazily inside a command fails the test too; on two CPUs each
of the two forks once.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import egodyn
from egodyn import io
from egodyn.questions import ANSWER_SPACES, QUESTION_ORDER

SRC = str(Path(egodyn.__file__).resolve().parents[1])

# Prints the loaded module names after the import and after each command,
# and the forks of each command.
_SCRIPT = """
import json, os, sys
import egodyn.cli
loaded, statuses, forks, fork = [sorted(sys.modules)], [], [], os.fork
os.fork = lambda: forks.append(len(statuses)) or fork()
for argv in json.loads(sys.argv[1]):
    statuses.append(egodyn.cli.main(argv))
    loaded.append(sorted(sys.modules))
print(json.dumps({"loaded": loaded, "statuses": statuses, "forks": forks}))
"""


def _write_inputs(tmp_path: Path) -> list[list[str]]:
    """Pose and rate clips, two models' predictions and the configs of a
    ``label`` and a ``sweep`` run over them; returns the two argv lists."""
    rows = [
        {"clip_id": "pose", "t": i / 10.0, "x": 0.5 * i, "y": 0.01 * i * i,
         "heading": 0.02 * i}
        for i in range(31)
    ] + [
        {"clip_id": "rate", "t": i / 10.0, "v": 6.0 - 0.1 * i, "omega": 0.15}
        for i in range(31)
    ]
    trajectories = tmp_path / "trajectories.jsonl"
    io.write_jsonl(trajectories, rows)
    predictions = {}
    for model, pick in (("first", 0), ("last", -1)):
        predictions[model] = str(tmp_path / f"{model}.jsonl")
        io.write_jsonl(
            predictions[model],
            [
                {"clip_id": clip_id, "question_id": q, "response": ANSWER_SPACES[q][pick]}
                for clip_id in ("pose", "rate")
                for q in QUESTION_ORDER
            ],
        )
    configs = {
        "label": {"input": str(trajectories), "out": str(tmp_path / "label")},
        "sweep": {
            "trajectories": str(trajectories),
            "predictions": predictions,
            "alphas": [0.5, 1.0, 1.5],
            "out": str(tmp_path / "sweep"),
        },
    }
    argvs = []
    for command, config in configs.items():
        path = tmp_path / f"{command}.json"
        io.write_json(path, config)
        argvs.append([command, "--config", str(path)])
    return argvs


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """The modules loaded after ``import egodyn.cli`` and after each of a
    ``label`` and a ``sweep`` run in a fresh interpreter, and the outputs."""
    tmp_path = tmp_path_factory.mktemp("commands")
    argvs = _write_inputs(tmp_path)
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    doc = json.loads(result.stdout)
    assert doc["statuses"] == [0, 0]
    return tmp_path, doc


def test_cli_import_and_commands_load_no_scipy(loaded):
    tmp_path, doc = loaded
    assert (tmp_path / "label" / "labels.jsonl").exists()
    assert (tmp_path / "sweep" / "sweep.json").exists()
    after_import = doc["loaded"][0]
    assert "egodyn.cli" in after_import
    assert "numpy" in after_import
    for stage, modules in zip(("import", "label", "sweep"), doc["loaded"]):
        scipy = [m for m in modules if m == "scipy" or m.startswith("scipy.")]
        assert scipy == [], f"after {stage}: {scipy[:5]}"


def test_cli_import_and_commands_load_no_process_pool(loaded):
    doc = loaded[1]
    for stage, modules in zip(("import", "label", "sweep"), doc["loaded"]):
        pools = {"multiprocessing", "concurrent.futures", "subprocess"}.intersection(modules)
        assert pools == set(), f"after {stage}: {sorted(pools)}"
    two_cpus = len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) >= 2
    assert doc["forks"] == ([0, 1] if two_cpus else [])
