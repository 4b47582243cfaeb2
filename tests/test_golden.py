"""Committed output digests, equal under every OpenBLAS kernel.

The commands that write derived numbers (``synth``, ``label``,
``calibrate-thresholds``, ``sweep`` and ``baseline``), and the ones that
parse and score free-text answers (``evaluate`` and ``parse``), run on a
corpus made here from a fixed seed, and the SHA-256 of every output file
must equal ``GOLDEN``. The byte-identity tests elsewhere compare two computations in
one process, so they cannot see a numpy, BLAS or CPU change that moves
both; this test fails on one.

Each case runs the commands in a child process. The kernel cases set
``OPENBLAS_CORETYPE``, which makes OpenBLAS use the kernels that another
CPU would get from the same build, so one machine checks that the bytes
do not depend on them. They run only when numpy is built on OpenBLAS and
the CPU has the instructions the kernel needs.

To regenerate the digests after a deliberate change of output bytes:
``python tests/test_golden.py <empty dir>`` prints them.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import egodyn
from egodyn import io
from egodyn.baselines import synth_proxies
from egodyn.cli import main
from egodyn.questions import ANSWER_SPACES

GOLDEN = {
    "baseline/baseline_labels.jsonl":
        "39b2914812bd6d3307df9b37fa5df72e83cf1e9236ae439fd9583b800b113a0f",
    "calibrate/thresholds.json":
        "7278c3464ee10a93bce31953947cbc84f6a164552e4aaa5d92cb825ebad8f72b",
    "evaluate/parsed_predictions.jsonl":
        "97d9371794a8fbe903613fefc8d2966ef2ffb16a03ad0f13374188d8d7f2f953",
    "evaluate/report.json":
        "c62abd64add97738434bff3437f7407062bbbb35eddb037202ddcfde55d73deb",
    "label/clip_summaries.jsonl":
        "9dfb822624572c4ebd1088b456d3f487e5fe1a6eee1208e287dc8793fed8d374",
    "label/labels.jsonl":
        "d7fa84c5d1066256670f47b032fa97cec786c4e40b4ee6359b3ee8adc389151d",
    "label/prompts.jsonl":
        "edce68bfa06af4fd2f759946c16dbe4d435d9c690ec3ee98c2f345a351b9ab6c",
    "parse/parse_report.json":
        "258fdea4689bd34cd342a3e316d999350b92f33b6962c17965b19fe9a9f38868",
    "parse/parsed_predictions.jsonl":
        "b641ff87b8e87f2200ca3deef6d468c140f2d91dd0133f225f5cba8fe5e1f7ff",
    "sweep/sweep.csv":
        "449471b4073db7c02a91fe544240a0b86b58e9a63b3b14917be3f1c524fcc00b",
    "sweep/sweep.json":
        "7bab2a9af031fab63ee4ec1fdc5d2288c59638a1c98839819a039c2942c8c55a",
    "synth/expected_labels.jsonl":
        "415ad0312b785d7de229b588c42fd7e6c1b32cd8e9cee512dd21030ddb26dba1",
    "synth/prompts.jsonl":
        "4b9089951a19b3f36ae6287dcdf268b7cf8d728cc0964a1d50de02fe312d75a4",
    "synth/trajectories.jsonl":
        "27d555cd752d03235444cabe68435c127672e92e6c3a364f9926cde2d41f46e8",
}

# OPENBLAS_CORETYPE -> the /proc/cpuinfo flag its kernels need (pni: SSE3).
KERNELS = {"Prescott": "pni", "Haswell": "avx2", "SkylakeX": "avx512f"}


def _run(command: str, config: dict, work: Path) -> None:
    path = work / f"{command}.json"
    io.write_json(path, config)
    status = main([command, "--config", str(path)])
    if status != 0:
        raise RuntimeError(f"{command} exited {status}")


def run_commands(work: Path) -> dict[str, str]:
    """Run the commands on the seeded corpus in ``work``; the SHA-256 of
    each output file but the manifests, as ``<command>/<file>`` -> hex."""
    _run("synth", {"count": 24, "seed": 11, "encoding": "summary",
                   "out": str(work / "synth")}, work)
    clips = io.rows_to_sequences(io.read_trajectory_clips(work / "synth" / "trajectories.jsonl"))
    raw, odom = [], []
    for k, (clip_id, seq) in enumerate(clips):
        # pose and rate rows in turn, each clip at its own start time
        t = (seq.t + 0.37 * k).tolist()
        if k % 2 == 0:
            channels = {"x": seq.x, "y": seq.y, "heading": seq.theta}
        else:
            channels = {"v": seq.v, "omega": seq.omega}
        columns = [c.tolist() for c in channels.values()]
        raw += [{"clip_id": clip_id, "t": t[i], **dict(zip(channels, values))}
                for i, values in enumerate(zip(*columns))]
        _, series = synth_proxies(seq, noise_level=0.5, seed=k)
        odom += [{"clip_id": clip_id, "t": a, "m_disp": b, "theta_deg": c} for a, b, c in
                 zip(series.t.tolist(), series.m_disp.tolist(), series.theta_deg.tolist())]
    io.write_jsonl(work / "raw.jsonl", raw)
    io.write_jsonl(work / "odom.jsonl", odom)
    models = {}
    for model, every in (("exact", 0), ("coarse", 3)):
        rows = io.read_jsonl(work / "synth" / "expected_labels.jsonl")
        for i, row in enumerate(rows):
            wrong = every and i % every == 0
            row["response"] = ANSWER_SPACES[row["question_id"]][0] if wrong else row["answer"]
        io.write_jsonl(work / f"{model}.jsonl", rows)
        models[model] = str(work / f"{model}.jsonl")
    # free text in several forms, and some pre-parsed rows, with or without a stage
    forms = ("{}", "Answer: {}", "I think it is {}.\nFinal: {}", "{} — sûrement",
             'no idea "{}"\\?', "\t{}\x01", "¯\\_(ツ)_/¯")
    free = []
    for i, row in enumerate(io.read_jsonl(work / "synth" / "expected_labels.jsonl")):
        label = ANSWER_SPACES[row["question_id"]][i % 2] if i % 5 == 0 else row["answer"]
        pred = {"clip_id": row["clip_id"], "question_id": row["question_id"]}
        if i % 11 == 0:
            pred["parsed"] = label
            if i % 22 == 0:
                pred["stage"] = "manual"
        else:
            pred["response"] = forms[i % len(forms)].format(label, label)
        free.append(pred)
    io.write_jsonl(work / "free.jsonl", free)
    io.write_jsonl(work / "mixed.jsonl", [{**row, "model": "free"} for row in free[::3]]
                   + io.read_jsonl(work / "coarse.jsonl")[::5])
    raw_path = str(work / "raw.jsonl")
    _run("label", {"input": raw_path, "encoding": "summary", "out": str(work / "label")}, work)
    _run("calibrate-thresholds", {"input": raw_path, "out": str(work / "calibrate")}, work)
    _run("sweep", {"trajectories": raw_path, "predictions": models,
                   "alphas": [0.8, 1.0, 1.25], "out": str(work / "sweep")}, work)
    _run("baseline", {"proxies": str(work / "odom.jsonl"), "kind": "vo",
                      "out": str(work / "baseline")}, work)
    _run("evaluate", {"truth": str(work / "synth" / "expected_labels.jsonl"),
                      "predictions": str(work / "free.jsonl"),
                      "out": str(work / "evaluate")}, work)
    _run("parse", {"predictions": str(work / "mixed.jsonl"), "out": str(work / "parse")}, work)
    return {
        f"{out.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for out in sorted(p for p in work.iterdir() if p.is_dir())
        for path in sorted(out.iterdir())
        if path.name != "manifest.json"
    }


def _numpy_on_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


def _cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.split(":", 1)[1].split()}


@pytest.mark.parametrize("kernel", [None, *KERNELS], ids=["default", *KERNELS])
def test_outputs_equal_the_golden_digests(tmp_path, kernel):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if kernel is not None:
        if not _numpy_on_openblas():
            pytest.skip("numpy is not built on OpenBLAS")
        if KERNELS[kernel] not in _cpu_flags():
            pytest.skip(f"the CPU lacks {KERNELS[kernel]}, which {kernel} kernels need")
        env["OPENBLAS_CORETYPE"] = kernel
    src = str(Path(egodyn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    digests = tmp_path / "digests.json"
    proc = subprocess.run(
        [sys.executable, __file__, str(tmp_path / "work"), str(digests)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(digests.read_text(encoding="utf-8")) == GOLDEN


if __name__ == "__main__":
    work = Path(sys.argv[1])
    work.mkdir(parents=True, exist_ok=True)
    result = json.dumps(run_commands(work), indent=4, sort_keys=True)
    if len(sys.argv) > 2:
        Path(sys.argv[2]).write_text(result, encoding="utf-8")
    else:
        print(result)
