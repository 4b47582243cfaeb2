from __future__ import annotations

import gc
import json
import math
import os
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GRID, make_seq, ref_label_rows
from egodyn import cli, io, oracle, parsing
from egodyn.cli import COMMAND_KEYS, main
from egodyn.errors import ConfigError, InvalidTrajectory
from egodyn.kinematics import PoseSample, stratification_bin, summarize_batch, summary_rows
from egodyn.questions import ANSWER_SPACES, QUESTION_ORDER
from egodyn.synth import TEMPLATE_NAMES, ManeuverSpec, generate, generate_suite
from egodyn.thresholds import ThresholdConfig


def run_cli(command, config, tmp_path, name="config.json", extra=()):
    config_path = tmp_path / name
    io.write_json(config_path, config)
    return main([command, "--config", str(config_path), *extra])


class TestJsonl:
    def test_round_trip(self, tmp_path):
        records = [{"b": 2, "a": 1.5}, {"a": "text", "c": [1, 2]}]
        path = tmp_path / "records.jsonl"
        io.write_jsonl(path, records)
        assert io.read_jsonl(path) == records

    def test_sorted_keys_for_byte_stability(self, tmp_path):
        path = tmp_path / "records.jsonl"
        io.write_jsonl(path, [{"b": 1, "a": 2}])
        assert path.read_text().strip() == '{"a": 2, "b": 1}'


def reference_read_jsonl(path):
    """``read_jsonl`` by ``json.loads``: ``_json_object`` on each line
    stripped of JSON whitespace (space, tab, line feed, carriage return)
    that is not blank."""
    records = []
    with io._utf8(path), Path(path).open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip(" \t\n\r")
            if line:
                records.append(io._json_object(line, path, number))
    return records


def read_outcome(reader, path):
    """The rows ``reader`` returns (as ``repr``, so NaN equals NaN), or its
    ``ConfigError`` message."""
    try:
        return "rows", repr(reader(path))
    except ConfigError as exc:
        return "error", str(exc)


# Lines whose rows, or whose error, are named; joined with "\n" unless
# the case gives its own line ends.
NAMED_JSONL = {
    # Joined into one array this decodes to two rows, one per line.
    "split_objects": ('{"a": 1}, {"b": [{}\n{}]}', ":1: invalid JSON (Extra data, column 9)"),
    "two_objects": ('{"a": 1}\n{"a": 1}, {"b": 2}', ":2: invalid JSON (Extra data, column 9)"),
    "adjacent_objects": ("{}{}", ":1: invalid JSON (Extra data, column 3)"),
    "scalar": ('{"a": 1}\n7', ":2: expected a JSON object, got int"),
    "string": ('"text"', ":1: expected a JSON object, got str"),
    "array": ("[{}]", ":1: expected a JSON object, got list"),
    "bom": ('\ufeff{"a": 1}', ":1: invalid JSON (Unexpected UTF-8 BOM"),
    "cr_ends": ('{"a": 1}\r{"a": 2}\r\r[3]\r', ":4: expected a JSON object"),
    "crlf_ends": ('{"a": 1}\r\n\r\n{"a": 2}\r\n[3]', ":4: expected a JSON object"),
    "blank_lines": ('\n  \n\t \n{"a": 1}\n \n{', ":6: invalid JSON"),
    # only JSON whitespace pads a line or makes it blank; json.loads rejects the rest
    "non_json_blank": ('\n  \n\t\xa0\u3000\n{"a": 1}', ":3: invalid JSON"),
    "control_blank": ('{"a": 1}\n\x1c\n{"a": 2}', ":2: invalid JSON"),
    "form_feed_and_nbsp": ('\x0c{"a": 1}\xa0', ":1: invalid JSON (Expecting value"),
    "unit_separator_tail": ('{"a": 1}\x1f\n{"a": 2}', ":1: invalid JSON (Extra data, column 9)"),
    "separators_in_strings": ('{"s": "a\u2028b\x85c"}\n{"s": "\u2028"}', None),
    "nan_and_infinity": ('{"a": NaN, "b": [Infinity, -Infinity]}', None),
    "padded_object": (' \t{"a": {"b": []}}\t ', None),
    # int() converts at most 4,300 digits (sys.get_int_max_str_digits())
    "long_integer": ('{"a": 1}\n{"s": "%s", "f": 1.%s, "n": -%s}' % (("1" * 5001,) * 3),
                     ":2: invalid JSON (Exceeds the limit (4300 digits) for integer string "
                     "conversion: value has 5001 digits, column 10027)"),
    "unicode_padded_object": (' \t{"a": {"b": []}}\xa0\u3000', ":1: invalid JSON (Extra data"),
}


class TestJsonlIdentity:
    """``read_jsonl`` returns what ``json.loads`` on each line stripped of
    JSON whitespace returns, or raises the same message; ``write_jsonl`` writes the bytes
    of a ``json.dumps`` loop."""

    @pytest.mark.parametrize("case", NAMED_JSONL)
    def test_named_cases(self, tmp_path, case):
        text, error = NAMED_JSONL[case]
        path = tmp_path / "rows.jsonl"
        path.write_bytes(text.encode("utf-8"))
        outcome = read_outcome(io.read_jsonl, path)
        assert outcome == read_outcome(reference_read_jsonl, path)
        if error is None:
            assert outcome[0] == "rows"
        else:
            assert outcome[0] == "error" and outcome[1].startswith(f"{path}{error}")

    def test_values_of_named_cases(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(NAMED_JSONL["separators_in_strings"][0].encode("utf-8"))
        assert io.read_jsonl(path) == [{"s": "a\u2028b\x85c"}, {"s": "\u2028"}]
        path.write_bytes(NAMED_JSONL["nan_and_infinity"][0].encode("utf-8"))
        (row,) = io.read_jsonl(path)
        assert math.isnan(row["a"]) and row["b"] == [math.inf, -math.inf]

    LINES = st.sampled_from([
        '{"a": 1}', '{"clip_id": "c1", "question_id": "turn_direction", "answer": "left"}',
        '{"s": "\u2028 \x85 \u00e9"}', '{"x": NaN}', '{"x": -Infinity}', '{"n": {"m": [1, {}]}}',
        "{}", "7", '"s"', "null", "[1, 2]", "[]", "{}{}", '{"a": 1}, {"b": 2}', "{} {}",
        '{"a": 1}, {"b": [{}', "{}]}", '{"a": ', '{"a": 1', "{'a': 1}", "NaN", "",
        " ", "\t", "\xa0", "\u3000", "\x1c", "\x0c", "\u2028", "\x85",
    ])
    PADDING = st.sampled_from(["", " ", "\t", "\xa0", "\u2028", "\x85", "\ufeff"])

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(st.tuples(PADDING, LINES, PADDING, st.sampled_from(["\n", "\r\n", "\r"])),
                       max_size=8),
        bom=st.booleans(),
    )
    def test_reader_equals_reference(self, tmp_path_factory, lines, bom):
        text = "\ufeff" * bom + "".join("".join(parts) for parts in lines)
        path = tmp_path_factory.mktemp("jsonl") / "rows.jsonl"
        path.write_bytes(text.encode("utf-8"))
        assert read_outcome(io.read_jsonl, path) == read_outcome(reference_read_jsonl, path)

    VALUES = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.floats().map(np.float64)
        | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    )

    @settings(max_examples=300, deadline=None)
    @given(records=st.lists(st.dictionaries(st.text(max_size=6), VALUES, max_size=4), max_size=5))
    def test_writer_equals_dumps_loop(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("jsonl") / "rows.jsonl"
        io.write_jsonl(path, records)
        expected = "".join(
            json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n" for record in records
        )
        assert path.read_bytes() == expected.encode("utf-8")

    @staticmethod
    def dumps_loop(records) -> bytes:
        return "".join(
            json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n" for record in records
        ).encode("utf-8")

    def test_writer_on_label_and_summary_rows(self, tmp_path):
        """The rows ``label`` writes, with edge values put into their
        evidence, summaries and tags: summary rows through the writer, label
        rows through ``oracle.label_lines``, as the reference rows dumped."""
        edges = [np.float64(0.1), -0.0, 1e308, math.nan, math.inf, -math.inf, True, None,
                 "\u00e9", 5]
        seqs = [clip.seq for clip in generate_suite(len(edges), seed=5)]
        columns = summarize_batch(seqs)
        cfg = ThresholdConfig(alpha=0.93)
        codes, evidence = oracle.label_batch(seqs, columns, cfg)
        clip_ids = ["c0", "k\u00f6rung \U0001f697", "\u2028", "100%", *"abcdef"]
        meta_rows = [
            {"clip_id": clip_id, "summary": summary, "tags": tags,
             "stratification_bin": stratification_bin(tags)}
            for clip_id, summary, tags in zip(clip_ids, summary_rows(columns),
                                              oracle.tags_of(codes))
        ]
        evidence["edge"] = np.array(edges, dtype=object)
        table = {question: (rule, params, names + ("edge",))
                 for question, (rule, params, names) in oracle.rule_table(cfg).items()}
        labels = oracle.label_lines(clip_ids, codes, evidence, table)
        assert labels.encode("utf-8") == self.dumps_loop(
            ref_label_rows(clip_ids, codes, evidence, table))
        meta_rows[0]["summary"]["max_speed"] = np.float64(-0.0)
        meta_rows[1]["summary"]["percentiles"]["accel"]["p50"] = math.nan
        meta_rows[2]["tags"]["has_turn"] = None
        path = tmp_path / "rows.jsonl"
        io.write_jsonl(path, meta_rows)
        assert path.read_bytes() == self.dumps_loop(meta_rows)

    def test_failed_write_leaves_no_state(self, tmp_path):
        """A row that fails to encode, then the same containers again: the
        second write is the ``json.dumps`` bytes, with no circular
        reference reported."""
        inner = {"b": [1.5, object()]}
        row = {"a": inner, "c": "\u00e9"}
        path = tmp_path / "rows.jsonl"
        with pytest.raises(TypeError, match="not JSON serializable"):
            io.write_jsonl(path, [{"ok": 1}, row])
        inner["b"][1] = None
        rows = [row, {"a": inner}, {"d": [inner["b"], inner["b"]]}]
        io.write_jsonl(path, rows)
        assert path.read_bytes() == self.dumps_loop(rows)

    def test_writer_named_values(self, tmp_path):
        records = [{"z": "\u00e9\u2028\U0001f697", "a": [math.nan, math.inf, -0.0]},
                   {"b": {"y": 1, "x": {"d": None, "c": True}}}]
        path = tmp_path / "rows.jsonl"
        io.write_jsonl(path, records)
        assert path.read_text("utf-8") == (
            '{"a": [NaN, Infinity, -0.0], "z": "\u00e9\u2028\U0001f697"}\n'
            '{"b": {"x": {"c": true, "d": null}, "y": 1}}\n'
        )


class TestTrajectoryIngestion:
    def test_pose_rows(self, tmp_path):
        rows = [
            {"clip_id": "c", "t": i / 10.0, "x": i, "y": 0.0, "heading": 0.0}
            for i in range(31)
        ]
        path = tmp_path / "poses.jsonl"
        io.write_jsonl(path, rows)
        clips = io.read_trajectory_clips(path)
        seq = io.rows_to_sequence(clips["c"])
        assert seq.n == 31
        np.testing.assert_allclose(seq.v, 10.0, atol=1e-6)

    def test_rate_rows(self, tmp_path):
        rows = [
            {"clip_id": "c", "t": i / 10.0, "v": 5.0, "omega": 0.1} for i in range(31)
        ]
        path = tmp_path / "rates.jsonl"
        io.write_jsonl(path, rows)
        seq = io.rows_to_sequence(io.read_trajectory_clips(path)["c"])
        np.testing.assert_allclose(seq.v, 5.0, atol=1e-9)
        np.testing.assert_allclose(seq.omega, 0.1, atol=1e-12)

    def test_full_state_rows_round_trip(self, tmp_path):
        seq, _ = generate(ManeuverSpec("arc_turn", {"v0": 8.0, "yaw_rate": 0.2}))
        path = tmp_path / "full.jsonl"
        io.write_jsonl(path, io.sequence_to_rows("c", seq))
        parsed = io.rows_to_sequence(io.read_trajectory_clips(path)["c"])
        np.testing.assert_allclose(parsed.v, seq.v)
        np.testing.assert_allclose(parsed.j, seq.j)
        np.testing.assert_allclose(parsed.x, seq.x)

    def test_csv_pose_rows(self, tmp_path):
        path = tmp_path / "poses.csv"
        lines = ["clip_id,t,x,y,heading"]
        for i in range(31):
            lines.append(f"c,{i/10.0},{float(i)},0.0,0.0")
        path.write_text("\n".join(lines) + "\n")
        seq = io.rows_to_sequence(io.read_trajectory_clips(path)["c"])
        np.testing.assert_allclose(seq.v, 10.0, atol=1e-6)


class TestSynthCommand:
    def test_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("synth", {"count": 8, "seed": 3, "out": str(out)}, tmp_path) == 0
        trajectories = io.read_jsonl(out / "trajectories.jsonl")
        labels = io.read_jsonl(out / "expected_labels.jsonl")
        assert len(trajectories) == 8 * 31
        assert len(labels) == 8 * 14
        manifest = io.read_json(out / "manifest.json")
        assert manifest["command"] == "synth"
        assert set(manifest["outputs"]) == {"trajectories", "expected_labels"}

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("synth", {"count": 6, "seed": 5, "out": str(out_a)}, tmp_path, "a.json")
        run_cli("synth", {"count": 6, "seed": 5, "out": str(out_b)}, tmp_path, "b.json")
        for name in ("trajectories.jsonl", "expected_labels.jsonl"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        hash_a = io.read_json(out_a / "manifest.json")["outputs"]
        hash_b = io.read_json(out_b / "manifest.json")["outputs"]
        assert {k: v["sha256"] for k, v in hash_a.items()} == {
            k: v["sha256"] for k, v in hash_b.items()
        }


class TestLabelCommand:
    def test_label_synth_output(self, tmp_path):
        synth_out = tmp_path / "synth"
        run_cli("synth", {"count": 5, "seed": 1, "out": str(synth_out)}, tmp_path)
        label_out = tmp_path / "labels"
        status = run_cli(
            "label",
            {"input": str(synth_out / "trajectories.jsonl"), "out": str(label_out)},
            tmp_path,
            "label.json",
        )
        assert status == 0
        labels = io.read_jsonl(label_out / "labels.jsonl")
        assert len(labels) == 5 * 14
        # direct state ingestion: labels equal the generator's expectations
        expected = {
            (row["clip_id"], row["question_id"]): row["answer"]
            for row in io.read_jsonl(synth_out / "expected_labels.jsonl")
        }
        for row in labels:
            assert row["answer"] == expected[(row["clip_id"], row["question_id"])]
        summaries = io.read_jsonl(label_out / "clip_summaries.jsonl")
        assert {"clip_id", "summary", "tags", "stratification_bin"} <= set(summaries[0])

    def test_epoch_timestamps_give_the_same_answers(self, tmp_path):
        """Pose, rate and full-state clips whose timestamps are Unix-epoch
        seconds are labeled as the same clips starting at 0 s."""
        answers = {}
        for shift in (0.0, 1.7e9):
            rows = []
            for k, clip in enumerate(generate_suite(30, seed=9)):
                seq, t = clip.seq, (clip.seq.t + shift).tolist()
                if k % 3 == 0:
                    channels = {"x": seq.x, "y": seq.y, "heading": seq.theta}
                elif k % 3 == 1:
                    channels = {"v": seq.v, "omega": seq.omega}
                else:
                    channels = {name: getattr(seq, name) for name in ("v", "a", "j", "omega", "theta")}
                columns = zip(*(c.tolist() for c in channels.values()))
                rows += [{"clip_id": clip.clip_id, "t": t[i], **dict(zip(channels, values))}
                         for i, values in enumerate(columns)]
            path, out = tmp_path / f"{shift}.jsonl", tmp_path / f"out_{shift}"
            io.write_jsonl(path, rows)
            assert run_cli("label", {"input": str(path), "out": str(out)}, tmp_path) == 0
            answers[shift] = [(r["clip_id"], r["question_id"], r["answer"])
                              for r in io.read_jsonl(out / "labels.jsonl")]
        assert answers[1.7e9] == answers[0.0]

    def test_label_with_encoding_writes_prompts(self, tmp_path):
        synth_out = tmp_path / "synth"
        run_cli("synth", {"count": 2, "seed": 1, "out": str(synth_out)}, tmp_path)
        label_out = tmp_path / "labels"
        status = run_cli(
            "label",
            {"input": str(synth_out / "trajectories.jsonl"), "out": str(label_out)},
            tmp_path,
            "label.json",
            extra=["--encoding", "full"],
        )
        assert status == 0
        prompts = io.read_jsonl(label_out / "prompts.jsonl")
        assert len(prompts) == 2
        assert prompts[0]["mode"] == "full"
        assert "Vehicle trajectory" in prompts[0]["text"]

    def test_summary_prompt_uses_the_label_heading_mode(self, tmp_path):
        # the heading swings out and back: net change ~0, summed change > 0
        seq = make_seq(v=8.0, omega=0.4 * np.sin(2.0 * np.pi * GRID / 3.0))
        traj_path = tmp_path / "swing.jsonl"
        io.write_jsonl(traj_path, io.sequence_to_rows("swing", seq))
        thresholds_path = tmp_path / "thresholds.json"
        io.write_json(thresholds_path, {"heading_total_mode": "sum"})
        label_out = tmp_path / "labels"
        status = run_cli(
            "label",
            {"input": str(traj_path), "thresholds": str(thresholds_path),
             "out": str(label_out)},
            tmp_path,
            "label.json",
            extra=["--encoding", "summary"],
        )
        assert status == 0
        label = next(
            row for row in io.read_jsonl(label_out / "labels.jsonl")
            if row["question_id"] == "heading_change"
        )
        total = label["evidence"]["total_heading_change"]
        assert total > 0.5
        (prompt,) = io.read_jsonl(label_out / "prompts.jsonl")
        assert f"heading_change = {total:.3f} rad" in prompt["text"]


class TestEvaluateCommand:
    def test_oracle_echo_scores_one(self, tmp_path):
        synth_out = tmp_path / "synth"
        run_cli("synth", {"count": 10, "seed": 2, "out": str(synth_out)}, tmp_path)
        truth_rows = io.read_jsonl(synth_out / "expected_labels.jsonl")
        preds = [
            {
                "clip_id": row["clip_id"],
                "question_id": row["question_id"],
                "response": row["answer"],
            }
            for row in truth_rows
        ]
        pred_path = tmp_path / "preds.jsonl"
        io.write_jsonl(pred_path, preds)
        eval_out = tmp_path / "eval"
        status = run_cli(
            "evaluate",
            {
                "truth": str(synth_out / "expected_labels.jsonl"),
                "predictions": str(pred_path),
                "out": str(eval_out),
            },
            tmp_path,
            "eval.json",
        )
        assert status == 0
        doc = io.read_json(eval_out / "report.json")
        assert doc["aggregate"]["bacc"] == pytest.approx(1.0)
        assert doc["aggregate"]["acc"] == pytest.approx(1.0)
        assert doc["aggregate"]["parsable_rate"] == pytest.approx(100.0)
        assert doc["aggregate"]["wpcr"] == pytest.approx(doc["aggregate"]["pcov"])
        assert set(doc["per_question"]) == set(QUESTION_ORDER)

    @pytest.mark.parametrize(
        ("answer", "prediction"),
        [("left", {"parsed": "banana"}), ("sideways", {"response": "left"}),
         ("unparsed", {"response": "left"})],
        ids=["parsed_label", "truth_answer", "unparsed_truth_answer"],
    )
    def test_out_of_space_label_exits_2(self, tmp_path, capsys, answer, prediction):
        key = {"clip_id": "c1", "question_id": "turn_direction"}
        truth_path = tmp_path / "truth.jsonl"
        io.write_jsonl(truth_path, [{**key, "answer": answer}])
        pred_path = tmp_path / "preds.jsonl"
        io.write_jsonl(pred_path, [{**key, **prediction}])
        status = run_cli(
            "evaluate",
            {"truth": str(truth_path), "predictions": str(pred_path),
             "out": str(tmp_path / "eval")},
            tmp_path,
        )
        assert status == 2
        err = capsys.readouterr().err
        bad = prediction.get("parsed", answer)
        assert "'c1'" in err and "'turn_direction'" in err and f"'{bad}'" in err
        assert f"{pred_path if 'parsed' in prediction else truth_path}:1: clip 'c1'" in err


    @pytest.mark.parametrize(
        "truth_q,prediction",
        [("bogus_q", {"parsed": "left"}), ("turn_direction", {"parsed": "unparsed"})],
        ids=["truth_row", "prediction_row"],
    )
    def test_unknown_question_exits_2(self, tmp_path, capsys, truth_q, prediction):
        """The message names the file and line of the row at fault."""
        truth_path = tmp_path / "truth.jsonl"
        io.write_jsonl(truth_path, [
            {"clip_id": "c0", "question_id": "turn_direction", "answer": "left"},
            {"clip_id": "c1", "question_id": truth_q, "answer": "left"},
        ])
        pred_path = tmp_path / "preds.jsonl"
        pred_q = "bogus_q" if truth_q == "turn_direction" else "turn_direction"
        io.write_jsonl(pred_path, [{"clip_id": "c1", "question_id": pred_q, **prediction}])
        status = run_cli(
            "evaluate",
            {"truth": str(truth_path), "predictions": str(pred_path),
             "out": str(tmp_path / "eval")},
            tmp_path,
        )
        assert status == 2
        where = f"{truth_path}:2" if truth_q == "bogus_q" else f"{pred_path}:1"
        assert f"{where}: clip 'c1': unknown question id 'bogus_q'" in capsys.readouterr().err


    @staticmethod
    def evaluate_ids(tmp_path, clip_ids):
        """``evaluate`` on a truth file of clips ``clip_ids``, one question
        each, predicted right."""
        rows = [{"clip_id": c, "question_id": "turn_direction", "answer": "left"}
                for c in clip_ids]
        io.write_jsonl(tmp_path / "truth.jsonl", rows)
        io.write_jsonl(tmp_path / "preds.jsonl", [{**row, "response": "left"} for row in rows])
        config = {"truth": str(tmp_path / "truth.jsonl"),
                  "predictions": str(tmp_path / "preds.jsonl"), "out": str(tmp_path / "eval")}
        return run_cli("evaluate", config, tmp_path)

    @pytest.mark.parametrize(
        "clip_ids,named",
        [([5, "c1"], "5 and 'c1'"), (["c1", 5], "'c1' and 5"),
         (["b", "a", 2.5], "'b' and 2.5"), ([1, None], "1 and None")],
    )
    def test_clip_ids_that_cannot_be_ordered_exit_2(self, tmp_path, capsys, clip_ids, named):
        assert self.evaluate_ids(tmp_path, clip_ids) == 2
        assert capsys.readouterr().err == (
            f"egodyn evaluate: {tmp_path / 'truth.jsonl'}: clip ids {named} cannot be "
            "ordered; the clip ids of a truth file must be all strings or all numbers\n"
        )
        assert not (tmp_path / "eval" / "report.json").exists()

    @pytest.mark.parametrize(
        "clip_ids,order",
        [([10, 2, True, 2.5], [True, 2, 2.5, 10]), (["c10", "c2", "b"], ["b", "c10", "c2"])],
    )
    def test_clip_ids_of_one_kind_are_sorted(self, tmp_path, clip_ids, order):
        assert self.evaluate_ids(tmp_path, clip_ids) == 0
        doc = io.read_json(tmp_path / "eval" / "report.json")
        assert [c["clip_id"] for c in doc["per_clip_consistency"]] == order


class TestSweepCommand:
    def test_missing_nominal_alpha_fails(self, tmp_path):
        synth_out = tmp_path / "synth"
        run_cli("synth", {"count": 4, "seed": 2, "out": str(synth_out)}, tmp_path)
        pred_path = tmp_path / "preds.jsonl"
        rows = io.read_jsonl(synth_out / "expected_labels.jsonl")
        io.write_jsonl(
            pred_path,
            [
                {"clip_id": r["clip_id"], "question_id": r["question_id"],
                 "response": r["answer"]}
                for r in rows
            ],
        )
        status = run_cli(
            "sweep",
            {
                "trajectories": str(synth_out / "trajectories.jsonl"),
                "predictions": {"echo": str(pred_path)},
                "alphas": [0.5, 1.5],
                "out": str(tmp_path / "sweep"),
            },
            tmp_path,
            "sweep.json",
        )
        assert status == 2

    def test_sweep_outputs(self, tmp_path):
        synth_out = tmp_path / "synth"
        run_cli("synth", {"count": 6, "seed": 2, "out": str(synth_out)}, tmp_path)
        pred_path = tmp_path / "preds.jsonl"
        rows = io.read_jsonl(synth_out / "expected_labels.jsonl")
        io.write_jsonl(
            pred_path,
            [
                {"clip_id": r["clip_id"], "question_id": r["question_id"],
                 "response": r["answer"]}
                for r in rows
            ],
        )
        sweep_out = tmp_path / "sweep"
        status = run_cli(
            "sweep",
            {
                "trajectories": str(synth_out / "trajectories.jsonl"),
                "predictions": {"echo": str(pred_path)},
                "out": str(sweep_out),
            },
            tmp_path,
            "sweep.json",
            extra=["--alpha", "0.5,1.0,1.5"],
        )
        assert status == 0
        doc = io.read_json(sweep_out / "sweep.json")
        assert [r["alpha"] for r in doc["results"]] == [0.5, 1.0, 1.5]
        nominal = next(r for r in doc["results"] if r["alpha"] == 1.0)
        assert nominal["kendall_tau_vs_nominal"] == 1.0
        csv_text = (sweep_out / "sweep.csv").read_text()
        assert csv_text.splitlines()[0] == "alpha,model,bacc,kendall_tau_vs_nominal"

    def test_alpha_one_scores_equal_evaluate(self, tmp_path):
        """``sweep`` at alpha 1 scores each model as ``evaluate`` does on
        the labels of ``label``, to the bit."""
        synth_out = tmp_path / "synth"
        run_cli("synth", {"count": 40, "seed": 5, "out": str(synth_out)}, tmp_path)
        trajectories = str(synth_out / "trajectories.jsonl")
        assert run_cli("label", {"input": trajectories, "out": str(tmp_path / "label")},
                       tmp_path) == 0
        labels = io.read_jsonl(tmp_path / "label" / "labels.jsonl")
        rng = np.random.default_rng(5)
        models = {}
        for model, noise in {"m0": 0.0, "m1": 0.15, "m2": 0.3, "m3": 0.6}.items():
            rows = []
            for row in labels:
                if rng.random() < 0.05:
                    continue  # no prediction: counts as unparsed
                space = ANSWER_SPACES[row["question_id"]]
                label = row["answer"]
                if rng.random() < noise:
                    label = space[int(rng.integers(len(space)))]
                response = [label, "Reasoning first.\n" + label, "The answer is " + label,
                            "I cannot tell."][int(rng.integers(4))]
                rows.append({"clip_id": row["clip_id"], "question_id": row["question_id"],
                             "response": response})
            models[model] = tmp_path / f"{model}.jsonl"
            io.write_jsonl(models[model], rows)
        sweep_out = tmp_path / "sweep"
        assert run_cli("sweep", {"trajectories": trajectories, "alphas": [0.5, 1.0, 1.5],
                                 "predictions": {m: str(p) for m, p in models.items()},
                                 "out": str(sweep_out)}, tmp_path, "sweep.json") == 0
        nominal = next(r for r in io.read_json(sweep_out / "sweep.json")["results"]
                       if r["alpha"] == 1.0)
        for model, path in models.items():
            out = tmp_path / f"eval_{model}"
            assert run_cli("evaluate", {"truth": str(tmp_path / "label" / "labels.jsonl"),
                                        "predictions": str(path), "out": str(out)},
                           tmp_path, "evaluate.json") == 0
            aggregate = io.read_json(out / "report.json")["aggregate"]
            expected = {name: aggregate[name] for name in ("acc", "bacc", "f1")}
            assert nominal["model_scores"][model] == expected


class TestParseCommand:
    def test_parse_rate_report(self, tmp_path):
        rows = [
            {"clip_id": "c1", "question_id": "mean_speed_low", "response": "yes",
             "model": "m1"},
            {"clip_id": "c2", "question_id": "mean_speed_low", "response": "???",
             "model": "m1"},
            {"clip_id": "c1", "question_id": "turn_direction",
             "response": "The answer is: left", "model": "m2"},
        ]
        pred_path = tmp_path / "preds.jsonl"
        io.write_jsonl(pred_path, rows)
        out = tmp_path / "parse"
        status = run_cli(
            "parse", {"predictions": str(pred_path), "out": str(out)}, tmp_path
        )
        assert status == 0
        doc = io.read_json(out / "parse_report.json")
        assert doc["m1"]["parse_rate_percent"] == 50.0
        assert doc["m2"]["parse_rate_percent"] == 100.0
        parsed = io.read_jsonl(out / "parsed_predictions.jsonl")
        assert parsed[2]["parsed"] == "left"
        assert parsed[2]["stage"] == "substring"


# One row per parser stage, pre-parsed rows, and a row with both a
# response and a pre-parsed label (parsed again from the response).
MIXED_PREDICTIONS = [
    {"clip_id": "c1", "question_id": "turn_direction", "response": " Left "},
    {"clip_id": "c1", "question_id": "speed_peak_half", "response": "First Half"},
    {"clip_id": "c1", "question_id": "braking_intensity",
     "response": "Let me think.\nModerate"},
    {"clip_id": "c1", "question_id": "speed_regime",
     "response": "I think it is urban driving."},
    {"clip_id": "c1", "question_id": "mean_speed_low", "response": "I cannot tell."},
    {"clip_id": "c1", "question_id": "lateral_accel", "response": "no", "parsed": "yes"},
    {"clip_id": "c1", "question_id": "heading_change", "parsed": "yes"},
    {"clip_id": "c1", "question_id": "extreme_maneuver", "parsed": "unparsed"},
]
MIXED_TRUTH = {
    "turn_direction": "left",
    "speed_peak_half": "first_half",
    "braking_intensity": "moderate",
    "speed_regime": "urban",
    "mean_speed_low": "no",
    "lateral_accel": "no",
    "heading_change": "yes",
    "extreme_maneuver": "no",
}
MIXED_PARSED = [
    ("left", "exact"),
    ("first_half", "underscore"),
    ("moderate", "last_line"),
    ("urban", "substring"),
    ("unparsed", "none"),
    ("no", "exact"),
    ("yes", "external"),
    ("unparsed", "external"),
]


class TestMixedStagePredictions:
    @pytest.fixture
    def parse_calls(self, tmp_path, monkeypatch):
        """The texts ``parsing.parse_code`` was called on, recorded in a file
        so that the calls of ``evaluate``'s forked child count too."""
        calls = tmp_path / "parse_calls"
        calls.touch()
        original = parsing.parse_code

        def counting(raw, tables):
            with calls.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(raw) + "\n")
            return original(raw, tables)

        monkeypatch.setattr(parsing, "parse_code", counting)
        return lambda: [json.loads(line) for line in calls.read_text(encoding="utf-8").splitlines()]

    @pytest.fixture
    def paths(self, tmp_path):
        pred_path = tmp_path / "preds.jsonl"
        io.write_jsonl(pred_path, MIXED_PREDICTIONS)
        truth_path = tmp_path / "truth.jsonl"
        io.write_jsonl(
            truth_path,
            [{"clip_id": "c1", "question_id": q, "answer": a}
             for q, a in MIXED_TRUTH.items()],
        )
        return pred_path, truth_path

    def free_text(self):
        return sorted(r["response"] for r in MIXED_PREDICTIONS if "response" in r)

    def test_parse_runs_once_per_row(self, tmp_path, paths, parse_calls):
        pred_path, _ = paths
        out = tmp_path / "parse"
        status = run_cli(
            "parse", {"predictions": str(pred_path), "out": str(out)}, tmp_path
        )
        assert status == 0
        assert sorted(parse_calls()) == self.free_text()
        parsed = io.read_jsonl(out / "parsed_predictions.jsonl")
        assert [(r["parsed"], r["stage"]) for r in parsed] == MIXED_PARSED
        doc = io.read_json(out / "parse_report.json")
        assert doc == {
            "default": {
                "n": 8,
                "parsed": 6,
                "parse_rate_percent": 75.0,
                "stages": {"exact": 2, "external": 2, "last_line": 1, "none": 1,
                           "substring": 1, "underscore": 1},
            }
        }

    def test_evaluate_runs_parse_once_per_row(self, tmp_path, paths, parse_calls):
        pred_path, truth_path = paths
        out = tmp_path / "eval"
        status = run_cli(
            "evaluate",
            {"truth": str(truth_path), "predictions": str(pred_path), "out": str(out)},
            tmp_path,
        )
        assert status == 0
        assert sorted(parse_calls()) == self.free_text()
        parsed = io.read_jsonl(out / "parsed_predictions.jsonl")
        assert [(r["parsed"], r["stage"]) for r in parsed] == MIXED_PARSED
        doc = io.read_json(out / "report.json")
        assert doc["aggregate"]["parsable_rate"] == 75.0
        assert doc["metadata"]["n_predictions"] == 8


class TestManifestInputs:
    def echo_predictions(self, synth_out, path):
        rows = io.read_jsonl(synth_out / "expected_labels.jsonl")
        io.write_jsonl(
            path,
            [{"clip_id": r["clip_id"], "question_id": r["question_id"],
              "response": r["answer"]} for r in rows],
        )
        return path

    def assert_inputs(self, out, expected):
        inputs = io.read_json(out / "manifest.json")["inputs"]
        assert {name: entry["path"] for name, entry in inputs.items()} == expected
        for entry in inputs.values():
            assert entry["sha256"] == io.sha256_file(entry["path"])

    def test_sweep_lists_trajectories_and_models(self, tmp_path):
        synth_out = tmp_path / "synth"
        run_cli("synth", {"count": 3, "seed": 2, "out": str(synth_out)}, tmp_path)
        pred_path = self.echo_predictions(synth_out, tmp_path / "preds.jsonl")
        trajectories = str(synth_out / "trajectories.jsonl")
        out = tmp_path / "sweep"
        status = run_cli(
            "sweep",
            {"trajectories": trajectories, "predictions": {"echo": str(pred_path)},
             "alphas": [1.0], "out": str(out)},
            tmp_path,
            "sweep.json",
        )
        assert status == 0
        self.assert_inputs(
            out, {"trajectories": trajectories, "predictions.echo": str(pred_path)}
        )

    def test_evaluate_lists_truth_and_predictions(self, tmp_path):
        synth_out = tmp_path / "synth"
        run_cli("synth", {"count": 2, "seed": 2, "out": str(synth_out)}, tmp_path)
        pred_path = self.echo_predictions(synth_out, tmp_path / "preds.jsonl")
        truth = str(synth_out / "expected_labels.jsonl")
        out = tmp_path / "eval"
        status = run_cli(
            "evaluate",
            {"truth": truth, "predictions": str(pred_path), "out": str(out)},
            tmp_path,
            "eval.json",
        )
        assert status == 0
        self.assert_inputs(out, {"truth": truth, "predictions": str(pred_path)})

    def test_missing_model_predictions_path(self, tmp_path):
        synth_out = tmp_path / "synth"
        run_cli("synth", {"count": 2, "seed": 2, "out": str(synth_out)}, tmp_path)
        out = tmp_path / "sweep"
        status = run_cli(
            "sweep",
            {"trajectories": str(synth_out / "trajectories.jsonl"),
             "predictions": {"absent": str(tmp_path / "absent.jsonl")},
             "alphas": [1.0], "out": str(out)},
            tmp_path,
            "sweep.json",
        )
        assert status == 2
        assert not (out / "manifest.json").exists()


class TestBaselineCommand:
    def test_flow_baseline(self, tmp_path):
        rows = [
            {"clip_id": "c", "t": float(i), "s_turn": 0.06, "s_exp": 0.0, "m_mag": 4.0}
            for i in range(9)
        ]
        path = tmp_path / "proxies.jsonl"
        io.write_jsonl(path, rows)
        out = tmp_path / "baseline"
        status = run_cli(
            "baseline",
            {"proxies": str(path), "kind": "flow", "out": str(out)},
            tmp_path,
        )
        assert status == 0
        labels = io.read_jsonl(out / "baseline_labels.jsonl")
        assert len(labels) == 6
        turn = next(r for r in labels if r["question_id"] == "turn_direction")
        assert turn["answer"] == "left"

    def test_kind_mismatch_fails(self, tmp_path):
        rows = [{"clip_id": "c", "t": 0.0, "m_disp": 1.0, "theta_deg": 0.0}]
        path = tmp_path / "proxies.jsonl"
        io.write_jsonl(path, rows)
        status = run_cli(
            "baseline",
            {"proxies": str(path), "kind": "flow", "out": str(tmp_path / "o")},
            tmp_path,
        )
        assert status == 2

    @pytest.mark.parametrize(
        ("kind", "bad_row", "field"),
        [
            ("flow", {"s_turn": "left"}, "s_turn"),
            ("vo", {"theta_deg": "north"}, "theta_deg"),
            ("flow", {"s_turn": float("nan")}, "s_turn"),
            ("flow", {"s_exp": None}, "s_exp"),
            ("flow", {"m_mag": -1.0}, "m_mag"),
            ("vo", {"m_disp": 10**400}, "m_disp"),
        ],
        ids=["non_numeric_s_turn", "non_numeric_theta_deg", "nan_s_turn", "missing_s_exp",
             "negative_m_mag", "huge_int_m_disp"],
    )
    def test_invalid_proxy_exits_2(self, tmp_path, capsys, kind, bad_row, field):
        base = (
            {"s_turn": 0.06, "s_exp": 0.0, "m_mag": 4.0}
            if kind == "flow"
            else {"m_disp": 1.0, "theta_deg": 0.0}
        )
        rows = [{"clip_id": "c", "t": float(i), **base} for i in range(9)]
        # the bad value sits in a later row; a None value means the field is absent
        rows[4] = {k: v for k, v in {**rows[4], **bad_row}.items() if v is not None}
        path = tmp_path / "proxies.jsonl"
        io.write_jsonl(path, rows)
        out = tmp_path / "baseline"
        status = run_cli(
            "baseline", {"proxies": str(path), "kind": kind, "out": str(out)}, tmp_path
        )
        assert status == 2
        err = capsys.readouterr().err
        assert "clip 'c'" in err and f"'{field}'" in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        ("kind", "row", "big"),
        [("flow", {"s_exp": 0.0, "m_mag": 4.0}, "s_turn"), ("vo", {"m_disp": 1.0}, "theta_deg")],
        ids=["flow", "vo"],
    )
    def test_overflowing_evidence_exits_2(self, tmp_path, capsys, kind, row, big):
        """Finite proxies of 1e308 give an infinite mean or sum. Clips 'b'
        and 'c' overflow; 'c' shares the sample count of the good clip 'a',
        so its stack is reduced first, yet 'b' comes first in input order."""
        rows = [
            {"clip_id": clip_id, "t": float(i), **row, big: value}
            for clip_id, count, value in (("a", 9, 0.06), ("b", 5, 1e308), ("c", 9, -1e308))
            for i in range(count)
        ]
        path = tmp_path / "proxies.jsonl"
        io.write_jsonl(path, rows)
        out = tmp_path / "baseline"
        config = {"proxies": str(path), "kind": kind, "out": str(out)}
        assert run_cli("baseline", config, tmp_path) == 2
        assert capsys.readouterr().err == (
            "egodyn baseline: clip 'b': proxy statistics overflow: "
            "an evidence value is not finite\n"
        )
        assert not (out / "manifest.json").exists()

    def test_array_clip_id_names_the_line(self, tmp_path, capsys):
        rows = [{"clip_id": 7 if i < 3 else ["a"], "t": float(i), "m_disp": 1.0,
                 "theta_deg": 0.0} for i in range(6)]
        path = tmp_path / "proxies.jsonl"
        io.write_jsonl(path, rows)
        config = {"proxies": str(path), "kind": "vo", "out": str(tmp_path / "o")}
        assert run_cli("baseline", config, tmp_path) == 2
        assert capsys.readouterr().err == (
            f"egodyn baseline: {path}:4: field 'clip_id' holds an array, not a string or a number\n"
        )
        del rows[3:]  # a number id is still read, as its string
        io.write_jsonl(path, rows)
        assert run_cli("baseline", config, tmp_path) == 0
        labels = io.read_jsonl(tmp_path / "o" / "baseline_labels.jsonl")
        assert {row["clip_id"] for row in labels} == {"7"}


class TestBalanceCommand:
    def test_balance_outputs(self, tmp_path):
        synth_out = tmp_path / "synth"
        run_cli("synth", {"count": 22, "seed": 4, "out": str(synth_out)}, tmp_path)
        label_rows = io.read_jsonl(synth_out / "expected_labels.jsonl")
        labels_path = tmp_path / "labels.jsonl"
        io.write_jsonl(
            labels_path,
            [
                {"clip_id": r["clip_id"], "question_id": r["question_id"],
                 "answer": r["answer"]}
                for r in label_rows
            ],
        )
        sources_path = tmp_path / "sources.csv"
        clip_ids = sorted({r["clip_id"] for r in label_rows})
        lines = ["clip_id,source"]
        for i, cid in enumerate(clip_ids):
            lines.append(f"{cid},{'real' if i % 2 == 0 else 'sim'}")
        sources_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "balance"
        status = run_cli(
            "balance",
            {
                "labels": str(labels_path),
                "sources": str(sources_path),
                "n": 10,
                "caps": {"real": 5, "sim": 5},
                "out": str(out),
            },
            tmp_path,
        )
        assert status == 0
        selected = io.read_json(out / "selected_clips.json")["selected"]
        assert len(selected) == 10
        report = io.read_json(out / "imbalance_report.json")
        assert set(report) == set(QUESTION_ORDER)


class TestCalibrateCommand:
    def test_calibrate_writes_thresholds(self, tmp_path):
        # braking-rich corpus: decelerations spread from light to hard
        rows = []
        for i in range(30):
            accel = -0.3 - 3.2 * i / 29.0
            seq, _ = generate(
                ManeuverSpec(
                    "brake_profile",
                    {"v0": 16.0, "accel": accel, "t_start": 0.5, "t_end": 2.5},
                )
            )
            rows.extend(io.sequence_to_rows(f"clip_{i:03d}", seq))
        corpus = tmp_path / "corpus.jsonl"
        io.write_jsonl(corpus, rows)
        out = tmp_path / "calibrated"
        status = run_cli(
            "calibrate-thresholds",
            {"input": str(corpus), "out": str(out)},
            tmp_path,
        )
        assert status == 0
        doc = io.read_json(out / "thresholds.json")
        assert doc["brake_emergency"] < doc["brake_moderate"] < doc["brake_low"] < 0
        assert 0 < doc["jerk_smooth"] < doc["jerk_moderate"]
        assert doc["turn_deadzone"] == 0.04

    def test_degenerate_corpus_fails_cleanly(self, tmp_path):
        synth_out = tmp_path / "synth"
        run_cli("synth", {"count": 8, "seed": 6, "out": str(synth_out)}, tmp_path)
        status = run_cli(
            "calibrate-thresholds",
            {"input": str(synth_out / "trajectories.jsonl"),
             "out": str(tmp_path / "calibrated")},
            tmp_path,
        )
        assert status == 2


class TestZeroClips:
    """Commands on an input of no clips: those that can write nothing write
    empty files and exit 0; those that need clips exit 2 saying why."""

    @pytest.fixture
    def empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        return path

    def test_label_writes_empty_files(self, tmp_path, empty):
        out = tmp_path / "o"
        assert run_cli("label", {"input": str(empty), "out": str(out),
                                 "encoding": "summary"}, tmp_path) == 0
        for name in ("labels.jsonl", "clip_summaries.jsonl", "prompts.jsonl"):
            assert (out / name).read_bytes() == b""

    def test_synth_summary_prompts_are_empty(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("synth", {"count": 0, "encoding": "summary", "out": str(out)},
                       tmp_path) == 0
        assert (out / "prompts.jsonl").read_bytes() == b""

    def test_calibrate_needs_clips(self, tmp_path, capsys, empty):
        status = run_cli("calibrate-thresholds", {"input": str(empty), "out": str(tmp_path / "o")},
                         tmp_path)
        err = capsys.readouterr().err
        assert status == 2, err
        assert "calibration needs a non-empty corpus" in err

    def test_sweep_has_no_truth(self, tmp_path, capsys, empty):
        status = run_cli("sweep", {"trajectories": str(empty), "predictions": {"m": str(empty)},
                                   "alphas": [0.5, 1.0], "out": str(tmp_path / "o")}, tmp_path)
        err = capsys.readouterr().err
        assert status == 2, err
        assert "no scorable questions in the truth set" in err


class TestValidation:
    def test_missing_input_path(self, tmp_path):
        status = run_cli(
            "label",
            {"input": str(tmp_path / "absent.jsonl"), "out": str(tmp_path / "o")},
            tmp_path,
        )
        assert status == 2


def _pose_rows(clip_id, count=31):
    return [
        {"clip_id": clip_id, "t": i / 10.0, "x": float(i), "y": 0.0, "heading": 0.0}
        for i in range(count)
    ]


def _rate_rows(clip_id, count=31):
    return [{"clip_id": clip_id, "t": i / 10.0, "v": 5.0, "omega": 0.1} for i in range(count)]


def _state_rows(clip_id):
    return io.sequence_to_rows(clip_id, make_seq(v=5.0, omega=0.1))


_ROWS = {"pose": _pose_rows, "rate": _rate_rows, "state": _state_rows}


def _overflowing_rows(clip_id, schema):
    """31 finite rows whose state derivation overflows."""
    huge = {
        "pose": lambda i: {"x": 1.5e308 if i % 2 else -1.5e308, "y": 0.0, "heading": 0.0},
        "rate": lambda i: {"v": 1.7e308 if i % 2 else 0.0, "omega": 0.0},
    }[schema]
    return [{"clip_id": clip_id, "t": i / 10.0, **huge(i)} for i in range(31)]


class TestTrajectoryInputErrors:
    """Malformed trajectory input exits 2 with a message naming the clip."""

    def exit_2_message(self, tmp_path, capsys, rows, command="label"):
        path = tmp_path / "trajectories.jsonl"
        io.write_jsonl(path, rows)
        status = run_cli(command, {"input": str(path), "out": str(tmp_path / "o")}, tmp_path)
        err = capsys.readouterr().err
        assert status == 2, err
        return err

    @pytest.mark.parametrize("value", [math.nan, math.inf, pytest.param(10**400, id="int_1e400"),
                                       pytest.param("5.5", id="string"),
                                       pytest.param(" 7 ", id="padded_string"),
                                       pytest.param("1_0", id="underscore_string"),
                                       pytest.param(True, id="boolean")])
    @pytest.mark.parametrize(
        "schema,field",
        [("pose", "x"), ("pose", "heading"), ("rate", "v"), ("rate", "omega"),
         ("state", "theta"), ("state", "t")],
    )
    def test_non_finite_value_names_clip_and_field(
        self, tmp_path, capsys, schema, field, value
    ):
        rows = _ROWS[schema]("bad")
        rows[4][field] = value
        err = self.exit_2_message(tmp_path, capsys, _pose_rows("good") + rows)
        assert "clip 'bad'" in err and repr(field) in err

    def test_negative_full_state_speed(self, tmp_path, capsys):
        rows = _state_rows("bad")
        rows[4]["v"] = -1.0
        err = self.exit_2_message(tmp_path, capsys, _rate_rows("good") + rows)
        assert "clip 'bad'" in err and "non-negative" in err

    def test_rows_of_a_clip_must_be_contiguous(self, tmp_path, capsys):
        split = _pose_rows("a")
        err = self.exit_2_message(
            tmp_path, capsys, split[:10] + _rate_rows("b") + split[10:]
        )
        assert "clip 'a'" in err and "contiguous" in err

    @pytest.mark.parametrize("command", ["label", "calibrate-thresholds"])
    @pytest.mark.parametrize(
        "fault,message",
        [("span", "spans 1.900 s"), ("order", "increase"), ("schema", "must carry")],
    )
    def test_names_the_first_failing_clip_in_input_order(
        self, tmp_path, capsys, command, fault, message
    ):
        if fault == "span":
            first_bad = _rate_rows("b", count=20)
        elif fault == "order":
            first_bad = _pose_rows("b")
            first_bad[3]["t"], first_bad[4]["t"] = first_bad[4]["t"], first_bad[3]["t"]
        else:
            first_bad = [{"clip_id": "b", "t": 0.0, "speed": 1.0}]
        negative = _state_rows("d")
        negative[0]["v"] = -1.0
        rows = _pose_rows("a") + first_bad + _pose_rows("c", count=10) + negative
        err = self.exit_2_message(tmp_path, capsys, rows, command)
        assert "clip 'b'" in err and message in err

    def test_span_message_shows_the_shortfall(self, tmp_path, capsys):
        """Timestamps accumulated with ``t += 0.1`` from 1.7e9 s span
        2.999997139 s, which prints as 3.000 s."""
        t, rows = 1.7e9, []
        for _ in range(31):
            rows.append({"clip_id": "c", "t": t, "v": 5.0, "omega": 0.1})
            t += 0.1
        err = self.exit_2_message(tmp_path, capsys, rows)
        assert err == (
            "egodyn label: clip 'c': log spans 3.000 s but window is 3.000 s "
            "(short by 2.86e-06 s)\n"
        )

    @pytest.mark.parametrize(
        ("clip_id", "kind"), [(["a"], "an array"), ({"a": 1}, "an object")], ids=["array", "object"]
    )
    def test_array_or_object_clip_id_names_the_line(self, tmp_path, capsys, clip_id, kind):
        rows = _pose_rows("a") + _pose_rows("b")
        rows[40]["clip_id"] = clip_id
        err = self.exit_2_message(tmp_path, capsys, rows)
        path = tmp_path / "trajectories.jsonl"
        assert err == (
            f"egodyn label: {path}:41: field 'clip_id' holds {kind}, not a string or a number\n"
        )

    @pytest.mark.parametrize("command", ["label", "sweep", "calibrate-thresholds", "baseline"])
    @pytest.mark.parametrize(
        ("clip_id", "kind"), [(None, "null"), (True, "a boolean"), (False, "a boolean")],
        ids=["null", "true", "false"],
    )
    def test_null_or_boolean_clip_id_names_the_line(
        self, tmp_path, capsys, command, clip_id, kind
    ):
        """No JSON reader spells null or a boolean as the ``"None"`` or
        ``"True"`` such an id would otherwise name."""
        path = tmp_path / "trajectories.jsonl"
        if command == "baseline":
            rows = [{"clip_id": "a", "t": float(i), "m_disp": 1.0, "theta_deg": 0.0}
                    for i in range(40)]
            config = {"proxies": str(path), "kind": "vo"}
        else:
            rows = _state_rows("a") + _state_rows("b")
            config = {"trajectories" if command == "sweep" else "input": str(path)}
        if command == "sweep":
            predictions = tmp_path / "predictions.jsonl"
            io.write_jsonl(predictions, [
                {"clip_id": "a", "question_id": "turn_direction", "response": "left"}])
            config.update(predictions={"m": str(predictions)}, alphas=[1.0])
        rows[31]["clip_id"] = clip_id
        io.write_jsonl(path, rows)
        status = run_cli(command, {**config, "out": str(tmp_path / "o")}, tmp_path)
        assert status == 2
        assert capsys.readouterr().err == (
            f"egodyn {command}: {path}:32: field 'clip_id' holds {kind}, not a string or a number\n"
        )

    def test_batch_check_names_the_first_failing_clip_in_input_order(self, tmp_path, capsys):
        """Every clip derives, but two fail the check of their derived
        states: rate clip 'b', whose integrated x overflows, and the later
        pose clip 'c', whose jerk overflows. The pose batch is checked
        first, yet 'b' comes first in input order and is named."""
        t = np.arange(51) / 10.0
        v = 7e307 * (1.0 - ((t - 2.5) / 2.5) ** 2) ** 2
        spike = 10 ** 307.1  # the x of one sample, halfway
        rows = (
            _pose_rows("a", count=51)
            + [{"clip_id": "b", "t": ti, "v": vi, "omega": 0.0} for ti, vi in zip(t, v)]
            + [{"clip_id": "c", "t": ti, "x": spike if k == 25 else 0.0, "y": 0.0,
                "heading": 0.0} for k, ti in enumerate(t)]
        )
        path = tmp_path / "trajectories.jsonl"
        io.write_jsonl(path, rows)
        config = {"input": str(path), "window_s": 5.0, "out": str(tmp_path / "o")}
        assert run_cli("label", config, tmp_path) == 2
        err = capsys.readouterr().err
        assert err == "egodyn label: clip 'b': NaN/Inf in state sequence\n"
        clips = io.read_trajectory_clips(path)
        for clip_id in ("b", "c"):  # each fails alone too, after its derivation
            with pytest.raises(InvalidTrajectory, match=f"^clip '{clip_id}': NaN/Inf"):
                io.rows_to_sequences({clip_id: clips[clip_id]}, window_s=5.0)

    @pytest.mark.parametrize(
        "rows,named",
        [(lambda: _pose_rows("a") + _overflowing_rows("b", "rate") + _overflowing_rows("c", "pose"),
          "clip 'b': state derivation overflows: a derived value is not finite"),
         (lambda: _overflowing_rows("a", "pose") + _rate_rows("b", count=20),
          "clip 'a': state derivation overflows: a derived value is not finite")],
        ids=["two_derivations", "derivation_then_span"],
    )
    def test_any_failure_names_the_first_failing_clip_in_input_order(
        self, tmp_path, capsys, rows, named
    ):
        """Whichever schema fails first, and at whichever step, every clip
        is built again alone in input order: the pose schema ('a', 'c')
        fails before the rate schema ('b'), and a derivation before a
        span check, yet the earlier clip is named."""
        assert self.exit_2_message(tmp_path, capsys, rows()) == f"egodyn label: {named}\n"

    @pytest.mark.parametrize("command", ["label", "sweep"])
    def test_evidence_overflow_names_the_first_clip(self, tmp_path, capsys, command):
        """Full-state clips whose summaries are finite but whose
        longitudinal activity, |mean_accel| / trend_deadzone, overflows
        under a trend_deadzone of 0.001: 'c' (a = 5e306) at alpha 1, and
        'b' (a = 1e305) only at alpha 0.5. label names 'c'; sweep over
        alphas 0.5 and 1 names 'b' at alpha 0.5. numpy warns of nothing."""
        rows = [
            {"clip_id": clip_id, "t": i / 10.0, "v": 5.0, "a": a, "j": 0.0, "omega": 0.0,
             "theta": 0.0}
            for clip_id, a in (("a", 0.1), ("b", 1e305), ("c", 5e306))
            for i in range(31)
        ]
        path = tmp_path / "trajectories.jsonl"
        io.write_jsonl(path, rows)
        thresholds = tmp_path / "thresholds.json"
        io.write_json(thresholds, {"trend_deadzone": 0.001})
        out = tmp_path / "o"
        config = {"thresholds": str(thresholds), "out": str(out)}
        if command == "label":
            config["input"] = str(path)
            named = "clip 'c': rule evidence overflows at alpha 1.0"
        else:
            preds = tmp_path / "preds.jsonl"
            io.write_jsonl(preds, [{"clip_id": r["clip_id"], "question_id": r["question_id"],
                                    "response": r["answer"]} for r in _label_rows("abc")])
            config.update(trajectories=str(path), predictions={"m": str(preds)},
                          alphas=[0.5, 1.0])
            named = "clip 'b': rule evidence overflows at alpha 0.5"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(command, config, tmp_path) == 2
        assert [w.message for w in caught] == []
        assert capsys.readouterr().err == (
            f"egodyn {command}: {named}: 'longitudinal_activity' is not finite\n")
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["label", "calibrate-thresholds"])
    def test_summary_overflow_names_the_first_clip(self, tmp_path, capsys, command):
        """Full-state clips whose finite speeds of 1e308 overflow the mean
        speed: 'b' (36 rows) and 'c' (31 rows, the sample count of the good
        clip 'a', so its stack is summarized first). 'b' comes first in
        input order and is named; numpy warns of nothing."""
        rows = [
            {"clip_id": clip_id, "t": i / 10.0, "v": v, "a": 0.0, "j": 0.0, "omega": 0.0,
             "theta": 0.0}
            for clip_id, count, v in (("a", 31, 5.0), ("b", 36, 1e308), ("c", 31, 1e308))
            for i in range(count)
        ]
        path = tmp_path / "trajectories.jsonl"
        io.write_jsonl(path, rows)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(command, {"input": str(path), "out": str(out)}, tmp_path) == 2
        assert [w.message for w in caught] == []
        assert capsys.readouterr().err == (
            f"egodyn {command}: clip 'b': summary statistics overflow: "
            "a summary value is not finite\n"
        )
        assert not (out / "manifest.json").exists()


def _label_rows(clip_ids):
    return [
        {"clip_id": clip_id, "question_id": q, "answer": ANSWER_SPACES[q][0]}
        for clip_id in clip_ids
        for q in QUESTION_ORDER
    ]


class TestKeyedInputErrors:
    """Malformed balance pools, repeated (clip, question) rows and bad grid
    settings exit 2 with a message naming the cause."""

    def exit_2_message(self, tmp_path, capsys, command, config):
        status = run_cli(command, {**config, "out": str(tmp_path / "o")}, tmp_path)
        err = capsys.readouterr().err
        assert status == 2, err
        return err

    def balance_config(self, tmp_path, rows, n=2):
        path = tmp_path / "labels.jsonl"
        io.write_jsonl(path, rows)
        return {"labels": str(path), "n": n}

    def test_balance_clip_without_an_answer(self, tmp_path, capsys):
        rows = [r for r in _label_rows(["c1", "c2", "c3"])
                if (r["clip_id"], r["question_id"]) != ("c2", "speed_regime")]
        err = self.exit_2_message(
            tmp_path, capsys, "balance", self.balance_config(tmp_path, rows)
        )
        assert "clip 'c2'" in err and "'speed_regime'" in err

    def test_balance_answer_outside_its_classes(self, tmp_path, capsys):
        rows = _label_rows(["c1", "c2", "c3"])
        rows[20]["answer"] = "banana"
        err = self.exit_2_message(
            tmp_path, capsys, "balance", self.balance_config(tmp_path, rows)
        )
        assert "clip 'c2'" in err and "'banana'" in err

    @pytest.mark.parametrize("n", [-1, 2.5, "two"])
    def test_balance_n_not_a_non_negative_integer(self, tmp_path, capsys, n):
        config = self.balance_config(tmp_path, _label_rows(["c1", "c2", "c3"]), n)
        err = self.exit_2_message(tmp_path, capsys, "balance", config)
        assert "n must be a non-negative integer" in err

    @pytest.mark.parametrize("caps", [[1], {"real": -1}, {"real": "1"}, [], 0])
    def test_balance_caps_not_source_integers(self, tmp_path, capsys, caps):
        config = self.balance_config(tmp_path, _label_rows(["c1", "c2", "c3"]))
        err = self.exit_2_message(tmp_path, capsys, "balance", {**config, "caps": caps})
        assert "caps must map" in err or "cap of source 'real'" in err

    @pytest.mark.parametrize("answer", ["whatever", ["x"]])
    def test_balance_unknown_question_id(self, tmp_path, capsys, answer):
        rows = _label_rows(["c0", "c1", "c2"])
        rows.insert(20, {"clip_id": "c0", "question_id": "bogus", "answer": answer})
        config = self.balance_config(tmp_path, rows)
        err = self.exit_2_message(tmp_path, capsys, "balance", config)
        assert f"egodyn balance: {config['labels']}:21: clip 'c0': unknown question id 'bogus'" in err

    def test_balance_two_labels_rows(self, tmp_path, capsys):
        rows = _label_rows(["c1", "c2", "c3"])
        rows.append({**rows[15], "answer": ANSWER_SPACES[rows[15]["question_id"]][1]})
        err = self.exit_2_message(
            tmp_path, capsys, "balance", self.balance_config(tmp_path, rows)
        )
        assert f"clip 'c2', question {rows[15]['question_id']!r}" in err

    @pytest.mark.parametrize("duplicated", ["truth", "predictions"])
    def test_evaluate_two_rows_for_one_key(self, tmp_path, capsys, duplicated):
        truth = [{"clip_id": "c1", "question_id": "turn_direction", "answer": "left"}]
        preds = [{"clip_id": "c1", "question_id": "turn_direction", "parsed": "left"}]
        rows = {"truth": truth, "predictions": preds}
        rows[duplicated] = rows[duplicated] + [
            {**rows[duplicated][0], "answer": "right", "parsed": "right"}
        ]
        for name, file_rows in rows.items():
            io.write_jsonl(tmp_path / f"{name}.jsonl", file_rows)
        err = self.exit_2_message(
            tmp_path, capsys, "evaluate",
            {name: str(tmp_path / f"{name}.jsonl") for name in rows},
        )
        assert "clip 'c1', question 'turn_direction'" in err

    @pytest.mark.parametrize(
        "manifest,named",
        [("clip_id,source\nc1,sim\nc2,real\nc1,real\n", ":4: clip 'c1'"),
         ("id,source\nc1,sim\n", ": source manifest has no 'clip_id' column"),
         ("clip_id,origin\nc1,sim\n", ": source manifest has no 'source' column")],
        ids=["repeated_clip", "no_clip_id", "no_source"],
    )
    def test_balance_source_manifest(self, tmp_path, capsys, manifest, named):
        sources = tmp_path / "sources.csv"
        sources.write_text(manifest)
        config = self.balance_config(tmp_path, _label_rows(["c1", "c2", "c3"]))
        err = self.exit_2_message(
            tmp_path, capsys, "balance",
            {**config, "sources": str(sources), "caps": {"sim": 0}},
        )
        assert f"{sources}{named}" in err

    @pytest.mark.parametrize("command", ["label", "sweep", "calibrate-thresholds"])
    @pytest.mark.parametrize("key,value", [("rate_hz", 0), ("window_s", -1),
                                           ("rate_hz", "ten"), ("rate_hz", 10**400)])
    def test_grid_settings_must_be_positive(self, tmp_path, capsys, command, key, value):
        path = tmp_path / "trajectories.jsonl"
        io.write_jsonl(path, _pose_rows("a"))
        preds = tmp_path / "preds.jsonl"
        io.write_jsonl(preds, [])
        config = {"input": str(path), key: value}
        if command == "sweep":
            config = {"trajectories": str(path), "predictions": {"m": str(preds)},
                      "alphas": [1.0], key: value}
        err = self.exit_2_message(tmp_path, capsys, command, config)
        assert f"{key} must be a finite positive number" in err


DROP = object()  # a row edit that deletes the field


class TestKeyedRowErrors:
    """A labels, truth or prediction row that lacks a field the command
    reads, or whose ``clip_id`` or ``question_id`` is an array or an
    object, exits 2 as ``<path>:<line>:`` naming the field; so does a
    prediction row with an unknown ``question_id`` or an out-of-space
    ``parsed`` label, naming the clip."""

    @pytest.mark.parametrize(
        "command,broken,edit,named",
        [("balance", "labels", {"answer": DROP}, "row lacks field 'answer'"),
         ("balance", "labels", {"clip_id": DROP}, "row lacks field 'clip_id'"),
         ("balance", "labels", {"question_id": DROP}, "row lacks field 'question_id'"),
         ("balance", "labels", {"clip_id": ["c2"]}, "field 'clip_id' holds an array"),
         ("balance", "labels", {"question_id": ["q"]}, "field 'question_id' holds an array"),
         ("evaluate", "truth", {"answer": DROP}, "row lacks field 'answer'"),
         ("evaluate", "truth", {"question_id": DROP}, "row lacks field 'question_id'"),
         ("evaluate", "truth", {"clip_id": ["c2"]}, "field 'clip_id' holds an array"),
         ("evaluate", "truth", {"question_id": ["q"]}, "field 'question_id' holds an array"),
         ("evaluate", "predictions", {"clip_id": ["c2"]}, "field 'clip_id' holds an array"),
         ("evaluate", "predictions", {"clip_id": {"c": 2}}, "field 'clip_id' holds an object"),
         ("evaluate", "predictions", {"clip_id": DROP}, "row lacks field 'clip_id'"),
         ("evaluate", "predictions", {"question_id": DROP}, "row lacks field 'question_id'"),
         ("evaluate", "predictions", {"response": DROP},
          "row lacks field 'response' or 'parsed'"),
         ("parse", "predictions", {"question_id": ["q"]}, "field 'question_id' holds an array"),
         ("parse", "predictions", {"question_id": {"q": 1}, "parsed": "left"},
          "field 'question_id' holds an object"),
         ("sweep", "predictions", {"clip_id": ["c2"]}, "field 'clip_id' holds an array"),
         ("parse", "predictions", {"clip_id": ["c2"]},
          "field 'clip_id' holds an array, not a string or a number"),
         ("parse", "predictions", {"clip_id": {"a": 1}, "parsed": "smooth"},
          "field 'clip_id' holds an object, not a string or a number"),
         ("parse", "predictions", {"question_id": "bogus"},
          "clip 'c2': unknown question id 'bogus'"),
         ("parse", "predictions", {"question_id": "bogus", "response": DROP, "parsed": "left"},
          "clip 'c2': unknown question id 'bogus'"),
         ("evaluate", "predictions", {"question_id": "bogus"},
          "clip 'c2': unknown question id 'bogus'"),
         ("sweep", "predictions", {"question_id": "bogus"},
          "clip 'c2': unknown question id 'bogus'"),
         ("evaluate", "predictions", {"response": DROP, "parsed": "sideways"},
          "clip 'c2', question 'driving_smoothness': parsed label 'sideways' is not in "
          "the answer space"),
         ("parse", "predictions", {"response": None},
          "clip 'c2': field 'response' holds null, not a string"),
         ("parse", "predictions", {"response": True, "parsed": "smooth"},
          "clip 'c2': field 'response' holds a boolean, not a string"),
         ("evaluate", "predictions", {"response": ["smooth"]},
          "clip 'c2': field 'response' holds an array, not a string"),
         ("evaluate", "predictions", {"response": 3},
          "clip 'c2': field 'response' holds a number, not a string"),
         ("sweep", "predictions", {"response": {"a": "smooth"}},
          "clip 'c2': field 'response' holds an object, not a string"),
         ("parse", "predictions", {"model": 1}, "field 'model' holds a number, not a string"),
         ("parse", "predictions", {"model": None}, "field 'model' holds null, not a string"),
         ("evaluate", "predictions", {"model": True},
          "field 'model' holds a boolean, not a string"),
         ("sweep", "predictions", {"model": ["m"]}, "field 'model' holds an array, not a string")],
        ids=["balance-no-answer", "balance-no-clip", "balance-no-question",
             "balance-array-clip", "balance-array-question", "truth-no-answer",
             "truth-no-question", "truth-array-clip", "truth-array-question",
             "predictions-array-clip", "predictions-object-clip", "predictions-no-clip",
             "predictions-no-question", "predictions-no-response",
             "parse-array-question", "parse-object-question", "sweep-array-clip",
             "parse-array-clip", "parse-object-clip",
             "parse-unknown-question", "parse-unknown-question-parsed",
             "evaluate-unknown-question", "sweep-unknown-question",
             "evaluate-parsed-out-of-space", "parse-null-response",
             "parse-boolean-response", "evaluate-array-response",
             "evaluate-number-response", "sweep-object-response", "parse-number-model",
             "parse-null-model", "evaluate-boolean-model", "sweep-array-model"],
    )
    def test_exits_2_naming_the_line(self, tmp_path, capsys, command, broken, edit, named):
        labels = _label_rows(["c1", "c2", "c3"])
        files = {
            "labels": labels,
            "truth": [dict(row) for row in labels],
            "predictions": [{"clip_id": r["clip_id"], "question_id": r["question_id"],
                             "response": r["answer"]} for r in labels],
        }
        edited = {**files[broken][17], **edit}
        files[broken][17] = {key: value for key, value in edited.items() if value is not DROP}
        paths = {name: tmp_path / f"{name}.jsonl" for name in files}
        for name, rows in files.items():  # a blank first line: row 17 is on line 19
            paths[name].write_text("\n" + "".join(json.dumps(row) + "\n" for row in rows))
        trajectories = tmp_path / "trajectories.jsonl"
        io.write_jsonl(trajectories, _pose_rows("c1"))
        config = {
            "balance": {"labels": str(paths["labels"]), "n": 2},
            "evaluate": {"truth": str(paths["truth"]), "predictions": str(paths["predictions"])},
            "parse": {"predictions": str(paths["predictions"])},
            "sweep": {"trajectories": str(trajectories), "alphas": [1.0],
                      "predictions": {"m": str(paths["predictions"])}},
        }[command]
        status = run_cli(command, {**config, "out": str(tmp_path / "o")}, tmp_path)
        err = capsys.readouterr().err
        assert status == 2, err
        assert f"egodyn {command}: {paths[broken]}:19: {named}" in err


BAD_JSON_LINES = {
    "truncated": '{"clip_id": "c1", "question_id": ', "array": "[1, 2]",
    "two_objects": '{"clip_id": "c1"}, {"question_id": "q"}',
    # joined with the next line this would decode as two objects
    "split_objects": '{"a": 1}, {"b": [{}\n{}]}',
    # padding and blanks that str.strip() takes but JSON does not
    "non_json_padding": '\x0c{"clip_id": "c1"}\xa0',
    "control_tail": '{"clip_id": "c1"}\x1f',
    "non_json_blank": "\xa0",
    "long_integer": '{"clip_id": "c1", "extra": %s}' % ("9" * 5001),
}


class TestMalformedJson:
    """A JSON Lines row or a config that is not a JSON object exits 2 with
    ``<path>:<line>:`` in the message."""

    def write_with_bad_line(self, path, rows, bad, at=3):
        lines = [json.dumps(row) for row in rows]
        lines.insert(at, BAD_JSON_LINES[bad])
        path.write_text("\n".join(lines) + "\n")
        return f"{path}:{at + 1}:"

    def exit_2_message(self, tmp_path, capsys, command, config):
        status = run_cli(command, {**config, "out": str(tmp_path / "o")}, tmp_path)
        err = capsys.readouterr().err
        assert status == 2, err
        return err

    @pytest.mark.parametrize("bad", BAD_JSON_LINES)
    def test_balance_labels(self, tmp_path, capsys, bad):
        labels = tmp_path / "labels.jsonl"
        where = self.write_with_bad_line(labels, _label_rows(["c1", "c2", "c3"]), bad)
        err = self.exit_2_message(tmp_path, capsys, "balance", {"labels": str(labels), "n": 2})
        assert where in err

    @pytest.mark.parametrize("bad", BAD_JSON_LINES)
    @pytest.mark.parametrize("broken", ["truth", "predictions"])
    def test_evaluate_inputs(self, tmp_path, capsys, broken, bad):
        truth = _label_rows(["c1"])
        preds = [{"clip_id": r["clip_id"], "question_id": r["question_id"],
                  "response": r["answer"]} for r in truth]
        paths = {name: tmp_path / f"{name}.jsonl" for name in ("truth", "predictions")}
        for name, rows in (("truth", truth), ("predictions", preds)):
            if name == broken:
                where = self.write_with_bad_line(paths[name], rows, bad)
            else:
                io.write_jsonl(paths[name], rows)
        err = self.exit_2_message(
            tmp_path, capsys, "evaluate", {name: str(p) for name, p in paths.items()}
        )
        assert where in err

    @pytest.mark.parametrize("bad", BAD_JSON_LINES)
    def test_label_input(self, tmp_path, capsys, bad):
        path = tmp_path / "trajectories.jsonl"
        where = self.write_with_bad_line(path, _pose_rows("a"), bad, at=10)
        err = self.exit_2_message(tmp_path, capsys, "label", {"input": str(path)})
        assert where in err

    @pytest.mark.parametrize("text,line", [('{"labels": ', 1), ("[1]", 1), ("\n\n[1]\n", 3),
                                           ("\n\x0c{}", 2)])
    def test_config(self, tmp_path, capsys, text, line):
        config = tmp_path / "config.json"
        config.write_text(text)
        status = main(["balance", "--config", str(config)])
        err = capsys.readouterr().err
        assert status == 2, err
        assert f"{config}:{line}:" in err


# An array nested far deeper than the recursion limit, and closed again.
DEEP = "[" * 100_000 + "]" * 100_000
DEEP_MESSAGE = "invalid JSON (nested too deeply to decode)"


class TestDeepNesting:
    """A JSON value nested deeper than the recursion limit exits 2 as
    ``<path>:<line>: invalid JSON (...)``, not with a ``RecursionError``,
    whichever reader meets it."""

    def write_with_deep_line(self, path, rows, at):
        lines = [json.dumps(row) for row in rows]
        lines.insert(at, '{"clip_id": %s}' % DEEP)
        path.write_text("\n".join(lines) + "\n")
        return f"{path}:{at + 1}: {DEEP_MESSAGE}\n"

    def message(self, tmp_path, capsys, command, config):
        status = run_cli(command, {**config, "out": str(tmp_path / "o")}, tmp_path)
        err = capsys.readouterr().err
        assert status == 2, err
        return err

    def test_balance_labels(self, tmp_path, capsys):
        labels = tmp_path / "labels.jsonl"
        where = self.write_with_deep_line(labels, _label_rows(["c1", "c2", "c3"]), 20)
        err = self.message(tmp_path, capsys, "balance", {"labels": str(labels), "n": 2})
        assert err == f"egodyn balance: {where}"

    def test_label_pose_input(self, tmp_path, capsys):
        path = tmp_path / "trajectories.jsonl"
        where = self.write_with_deep_line(path, _pose_rows("a") + _pose_rows("b"), 40)
        err = self.message(tmp_path, capsys, "label", {"input": str(path)})
        assert err == f"egodyn label: {where}"

    def test_evaluate_predictions(self, tmp_path, capsys):
        truth = _label_rows(["c1"])
        io.write_jsonl(tmp_path / "truth.jsonl", truth)
        predictions = tmp_path / "predictions.jsonl"
        where = self.write_with_deep_line(predictions, [
            {"clip_id": r["clip_id"], "question_id": r["question_id"], "response": r["answer"]}
            for r in truth], 5)
        err = self.message(tmp_path, capsys, "evaluate", {
            "truth": str(tmp_path / "truth.jsonl"), "predictions": str(predictions)})
        assert err == f"egodyn evaluate: {where}"

    @pytest.mark.parametrize("document", ["config", "thresholds"])
    def test_json_documents(self, tmp_path, capsys, document):
        """The line named is the one the document's value starts on."""
        traj = tmp_path / "trajectories.jsonl"
        io.write_jsonl(traj, _pose_rows("a"))
        thresholds = tmp_path / "thresholds.json"
        thresholds.write_text("{}")
        config = tmp_path / "config.json"
        io.write_json(config, {"input": str(traj), "thresholds": str(thresholds)})
        path = config if document == "config" else thresholds
        path.write_text('\n\n{"out": "o",\n "x": %s}\n' % DEEP)
        status = main(["label", "--config", str(config)])
        err = capsys.readouterr().err
        assert status == 2, err
        assert err == f"egodyn label: {path}:3: {DEEP_MESSAGE}\n"


class TestLoneSurrogates:
    """A JSON string holding a lone UTF-16 surrogate escape, which UTF-8
    cannot write, exits 2 with ``<path>:<line>:`` in the message."""

    def write_with_surrogate_line(self, path, rows, at=2):
        rows = [dict(row) for row in rows]
        rows[at]["clip_id"] = "\ud800"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        return f"{path}:{at + 1}: string holds \\ud800, a lone UTF-16 surrogate"

    def exit_2_message(self, tmp_path, capsys, command, config):
        status = run_cli(command, {**config, "out": str(tmp_path / "o")}, tmp_path)
        err = capsys.readouterr().err
        assert status == 2, err
        return err

    def test_balance_labels(self, tmp_path, capsys):
        labels = tmp_path / "labels.jsonl"
        where = self.write_with_surrogate_line(labels, _label_rows(["c1", "c2", "c3"]))
        err = self.exit_2_message(tmp_path, capsys, "balance", {"labels": str(labels), "n": 2})
        assert where in err

    @pytest.mark.parametrize("broken", ["truth", "predictions"])
    def test_evaluate_inputs(self, tmp_path, capsys, broken):
        truth = _label_rows(["c1"])
        preds = [{"clip_id": r["clip_id"], "question_id": r["question_id"],
                  "response": r["answer"]} for r in truth]
        paths = {name: tmp_path / f"{name}.jsonl" for name in ("truth", "predictions")}
        for name, rows in (("truth", truth), ("predictions", preds)):
            if name == broken:
                where = self.write_with_surrogate_line(paths[name], rows)
            else:
                io.write_jsonl(paths[name], rows)
        err = self.exit_2_message(
            tmp_path, capsys, "evaluate", {name: str(p) for name, p in paths.items()}
        )
        assert where in err

    def test_label_input(self, tmp_path, capsys):
        path = tmp_path / "trajectories.jsonl"
        where = self.write_with_surrogate_line(path, _pose_rows("a") + _pose_rows("b"), at=40)
        err = self.exit_2_message(tmp_path, capsys, "label", {"input": str(path)})
        assert where in err

    def test_config_names_the_line_of_the_string(self, tmp_path, capsys):
        """The escape in a key or a value of a multi-line JSON document; an
        escaped backslash before ``u`` and a surrogate pair are text."""
        config = tmp_path / "config.json"
        config.write_text('{\n  "labels": "a\\\\ud800.jsonl",\n  "n": 2,\n'
                          '  "out": "\\ud83d\\ude00",\n  "\\udfff": 1\n}\n')
        status = main(["balance", "--config", str(config)])
        err = capsys.readouterr().err
        assert status == 2, err
        assert f"{config}:5: string holds \\udfff, a lone UTF-16 surrogate" in err


class TestThresholdFileErrors:
    """A thresholds file that is not valid JSON, or holds a field that is
    not a finite number, a non-bool flag or a non-positive divisor, exits 2
    naming the file."""

    @pytest.mark.parametrize(
        "text,named",
        [('{"turn_deadzone": ', ":1: invalid JSON"),
         ('{"turn_deadzone": "abc"}', "turn_deadzone"),
         ('{"turn_deadzone": NaN}', "turn_deadzone"),
         ('{"turn_deadzone": -Infinity}', "turn_deadzone"),
         ('{"turn_deadzone": true}', "turn_deadzone"),
         ('{"lat_accel_high": -1}', "lat_accel_high"),
         ('{"trend_deadzone": 0}', "trend_deadzone"),
         ('{"stop_go_bidirectional": 1}', "stop_go_bidirectional"),
         ('{"stop_go_bidirectional": "yes"}', "stop_go_bidirectional")],
    )
    def test_label_exits_2(self, tmp_path, capsys, text, named):
        traj = tmp_path / "trajectories.jsonl"
        io.write_jsonl(traj, _pose_rows("a"))
        thresholds = tmp_path / "thresholds.json"
        thresholds.write_text(text)
        status = run_cli("label", {"input": str(traj), "thresholds": str(thresholds),
                                   "out": str(tmp_path / "o")}, tmp_path)
        err = capsys.readouterr().err
        assert status == 2, err
        assert str(thresholds) in err and named in err


class TestRepeatedKeys:
    """A key that repeats in an object of a config or thresholds document
    exits 2 naming the file, the line and the key, whichever value comes
    first; a JSON Lines row keeps the last value, as ``json.loads`` does."""

    @pytest.mark.parametrize("text,line", [
        ('{"turn_deadzone": "abc", "turn_deadzone": 0.04}', 1),
        ('{"turn_deadzone": 0.04,\n "turn_deadzone": "abc"}', 2),
        ('{\n "turn_deadzone": 0.04,\n "\\u0074urn_deadzone": 0.04\n}', 3),
    ])
    def test_thresholds(self, tmp_path, capsys, text, line):
        traj = tmp_path / "trajectories.jsonl"
        io.write_jsonl(traj, _pose_rows("a"))
        thresholds = tmp_path / "thresholds.json"
        thresholds.write_text(text)
        status = run_cli("label", {"input": str(traj), "thresholds": str(thresholds),
                                   "out": str(tmp_path / "o")}, tmp_path)
        err = capsys.readouterr().err
        assert status == 2, err
        assert f"{thresholds}:{line}: key 'turn_deadzone' repeats in its object" in err

    @pytest.mark.parametrize("text,line,key", [
        ('{"labels": "l.jsonl", "n": 2, "labels": "l.jsonl"}', 1, "labels"),
        ('{"labels": "l.jsonl", "n": 2,\n "caps": {"real": 1,\n "real": 2}}', 3, "real"),
        ('{"n": 2, "caps": {"a": [{"b": 1, "c": {"d": "}\\"", "d": 1}}]}}', 1, "d"),
    ])
    def test_config_at_any_depth(self, tmp_path, capsys, text, line, key):
        config = tmp_path / "config.json"
        config.write_text(text)
        status = main(["balance", "--config", str(config)])
        err = capsys.readouterr().err
        assert status == 2, err
        assert f"{config}:{line}: key {key!r} repeats in its object" in err

    def test_keys_in_other_objects_and_strings_are_not_repeats(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"a": {"k": 1}, "b": [{"k": 2}, {"k": "\\"k\\": {"}], "k": "a"}')
        assert io.read_json(path) == {"a": {"k": 1}, "b": [{"k": 2}, {"k": '"k": {'}], "k": "a"}

    def test_jsonl_row_keeps_the_last_value(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1, "a": 2}\n')
        assert io.read_jsonl(path) == [{"a": 2}]


class TestConfigNumbers:
    """Alphas, counts, seeds and encoding steps that are not valid numbers
    exit 2 naming the key."""

    def exit_2_message(self, tmp_path, capsys, command, config, extra=()):
        status = run_cli(command, {**config, "out": str(tmp_path / "o")}, tmp_path,
                         extra=extra)
        err = capsys.readouterr().err
        assert status == 2, err
        return err

    @pytest.mark.parametrize(
        "alphas,extra",
        [(None, ["--alpha", "0,1.0"]), (None, ["--alpha=-1,1.0"]),
         (None, ["--alpha", "0.5,abc,1.0"]), (0.5, []), ([0.5, "x", 1.0], []),
         ([True, 1.0], []), ([1.0, 10**400], [])],
    )
    def test_sweep_alphas(self, tmp_path, capsys, alphas, extra):
        traj = tmp_path / "trajectories.jsonl"
        io.write_jsonl(traj, _pose_rows("a"))
        preds = tmp_path / "preds.jsonl"
        io.write_jsonl(preds, [])
        config = {"trajectories": str(traj), "predictions": {"m": str(preds)},
                  "alphas": [1.0] if alphas is None else alphas}
        err = self.exit_2_message(tmp_path, capsys, "sweep", config, extra)
        assert "alpha" in err
        if alphas == [1.0, 10**400]:
            assert "alpha must be a finite positive number, got 1000" in err

    @pytest.mark.parametrize(
        "key,value", [("count", "abc"), ("count", 2.5), ("seed", "abc"), ("seed", -1)]
    )
    def test_synth_integers(self, tmp_path, capsys, key, value):
        err = self.exit_2_message(tmp_path, capsys, "synth", {"count": 2, key: value})
        assert f"{key} must be an integer" in err

    @pytest.mark.parametrize("steps", [1, "ten"])
    def test_label_encoding_steps(self, tmp_path, capsys, steps):
        traj = tmp_path / "trajectories.jsonl"
        io.write_jsonl(traj, _pose_rows("a"))
        err = self.exit_2_message(
            tmp_path, capsys, "label", {"input": str(traj), "encoding_steps": steps},
            extra=["--encoding", "timeseries"],
        )
        assert "encoding_steps must be an integer >= 2" in err

    @pytest.mark.parametrize(
        "command,config,named",
        [("synth", {"count": 100_001}, "count must be at most 100000, got 100001"),
         ("synth", {"count": 10**400}, "count must be at most 100000, got 1000"),
         ("synth", {"count": 1, "encoding_steps": 10_001},
          "encoding_steps must be at most 10000, got 10001"),
         ("label", {"encoding_steps": 10**12}, "encoding_steps must be at most 10000"),
         ("label", {"encoding_steps": 10**400}, "encoding_steps must be at most 10000"),
         ("label", {"rate_hz": 1e12}, "rate_hz * window_s must be at most 100000, got "
                                      "1000000000000.0 * 3.0"),
         ("calibrate-thresholds", {"window_s": 1e300},
          "rate_hz * window_s must be at most 100000, got 10.0 * 1e+300"),
         ("sweep", {"rate_hz": 33_334}, "rate_hz * window_s must be at most 100000"),
         ("label", {"rate_hz": 20_000, "window_s": 5}, "log spans 3.000 s but window is 5.000 s")],
        ids=["count", "count-beyond-memory", "synth-steps", "label-steps",
             "steps-beyond-memory", "rate", "window", "sweep-rate", "largest-grid"],
    )
    def test_sizes_beyond_the_largest(self, tmp_path, capsys, command, config, named):
        """A size no memory could hold exits 2 before any input is read;
        the largest grid is taken (and this clip is too short for it)."""
        traj = tmp_path / "trajectories.jsonl"
        io.write_jsonl(traj, _pose_rows("a"))
        preds = tmp_path / "preds.jsonl"
        io.write_jsonl(preds, [])
        inputs = {"synth": {}, "label": {"input": str(traj), "encoding": "timeseries"},
                  "calibrate-thresholds": {"input": str(traj)},
                  "sweep": {"trajectories": str(traj), "predictions": {"m": str(preds)},
                            "alphas": [1.0]}}[command]
        err = self.exit_2_message(tmp_path, capsys, command, {**inputs, **config})
        assert named in err
        assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


class TestEncodingChecks:
    """``encoding_steps`` is checked whenever the key is present, and clips
    without positions under a coordinates encoding are named, before
    ``label`` or ``synth`` writes any output."""

    def exit_2_without_outputs(self, tmp_path, capsys, command, config, extra=()):
        out = tmp_path / "o"
        status = run_cli(command, {**config, "out": str(out)}, tmp_path, extra=extra)
        err = capsys.readouterr().err
        assert status == 2, err
        assert not out.exists() or not any(out.iterdir())
        return err

    @pytest.mark.parametrize("command", ["label", "synth"])
    @pytest.mark.parametrize("steps,extra", [(1, ["--encoding", "summary"]), ("abc", []),
                                             (2.5, []), (True, ["--encoding", "full"])])
    def test_encoding_steps(self, tmp_path, capsys, command, steps, extra):
        traj = tmp_path / "trajectories.jsonl"
        io.write_jsonl(traj, _pose_rows("a"))
        config = {"input": str(traj)} if command == "label" else {"count": 2}
        err = self.exit_2_without_outputs(
            tmp_path, capsys, command, {**config, "encoding_steps": steps}, extra)
        assert f"egodyn {command}: encoding_steps must be an integer >= 2, got {steps!r}" in err

    @pytest.mark.parametrize("mode", ["coordinates", "full"])
    def test_clip_without_positions(self, tmp_path, capsys, mode):
        traj = tmp_path / "trajectories.jsonl"
        io.write_jsonl(traj, _pose_rows("a") + _state_rows("b") + _state_rows("c"))
        err = self.exit_2_without_outputs(
            tmp_path, capsys, "label", {"input": str(traj)}, ["--encoding", mode])
        assert f"egodyn label: clip 'b': {mode} encoding needs x and y channels" in err

    @pytest.mark.parametrize("mode", ["summary", "timeseries"])
    def test_modes_without_positions_need_none(self, tmp_path, mode):
        traj = tmp_path / "trajectories.jsonl"
        io.write_jsonl(traj, _pose_rows("a") + _state_rows("b"))
        config = {"input": str(traj), "out": str(tmp_path / "o")}
        assert run_cli("label", config, tmp_path, extra=["--encoding", mode]) == 0
        assert len(io.read_jsonl(tmp_path / "o" / "prompts.jsonl")) == 2


class TestTextInputErrors:
    """A CSV trajectory field that is not a number, and an input that is not
    UTF-8, exit 2 with ``<path>:<line>:`` in the message."""

    def exit_2_message(self, tmp_path, capsys, command, config):
        status = run_cli(command, {**config, "out": str(tmp_path / "o")}, tmp_path)
        err = capsys.readouterr().err
        assert status == 2, err
        return err

    @pytest.mark.parametrize(
        "row,named", [("a,0.0,abc,0.1", "field 'v'"), ("a,0.0,1.0,0.1,9", "more fields")]
    )
    def test_csv_row_that_is_not_numbers(self, tmp_path, capsys, row, named):
        path = tmp_path / "trajectories.csv"
        path.write_text(f"clip_id,t,v,omega\na,0.1,1.0,0.1\n{row}\n")
        err = self.exit_2_message(tmp_path, capsys, "label", {"input": str(path)})
        assert f"{path}:3: {named}" in err

    @pytest.mark.parametrize(
        "reader", ["labels", "config", "thresholds", "csv_trajectories", "sources"]
    )
    def test_non_utf8_input(self, tmp_path, capsys, reader):
        labels = tmp_path / "labels.jsonl"
        io.write_jsonl(labels, _label_rows(["c1", "c2"]))
        sources = tmp_path / "sources.csv"
        sources.write_text("clip_id,source\nc1,real\n")
        traj = tmp_path / "trajectories.csv"
        traj.write_text("clip_id,t,v,omega\n" + "".join(
            f"a,{i / 10.0},5.0,0.1\n" for i in range(31)))
        thresholds = tmp_path / "thresholds.json"
        thresholds.write_text("{}\n")
        config = tmp_path / "config.json"
        if reader in ("labels", "sources"):
            command, params = "balance", {"labels": str(labels), "n": 1, "sources": str(sources)}
        else:
            command, params = "label", {"input": str(traj), "thresholds": str(thresholds)}
        io.write_json(config, {**params, "out": str(tmp_path / "o")})
        path = {"labels": labels, "config": config, "thresholds": thresholds,
                "csv_trajectories": traj, "sources": sources}[reader]
        first, rest = path.read_bytes().split(b"\n", 1)
        path.write_bytes(first + b"\n\xff\xfe" + rest)  # line 2 is not UTF-8
        status = main([command, "--config", str(config)])
        err = capsys.readouterr().err
        assert status == 2, err
        assert f"{path}:2: not UTF-8" in err


class TestByteOrderMark:
    """A CSV input that starts with a UTF-8 byte order mark exits 2 with a
    message that names it, not as a missing or non-numeric column."""

    BOM_MESSAGE = "1: file starts with a UTF-8 byte order mark (U+FEFF); write it as UTF-8 without one"

    def test_source_manifest(self, tmp_path, capsys):
        labels = tmp_path / "labels.jsonl"
        io.write_jsonl(labels, _label_rows(["c1", "c2"]))
        sources = tmp_path / "sources.csv"
        sources.write_text("\ufeffclip_id,source\nc1,real\nc2,sim\n", encoding="utf-8")
        status = run_cli("balance", {"labels": str(labels), "n": 1, "sources": str(sources),
                                     "out": str(tmp_path / "o")}, tmp_path)
        err = capsys.readouterr().err
        assert status == 2, err
        assert err == f"egodyn balance: {sources}:{self.BOM_MESSAGE}\n"

    @pytest.mark.parametrize("header", ["clip_id,t,v,omega", '"clip_id",t,v,omega'])
    def test_csv_trajectory(self, tmp_path, capsys, header):
        traj = tmp_path / "trajectories.csv"
        traj.write_text("\ufeff" + header + "\n" + "".join(
            f"a,{i / 10.0},5.0,0.1\n" for i in range(31)), encoding="utf-8")
        status = run_cli("label", {"input": str(traj), "out": str(tmp_path / "o")}, tmp_path)
        err = capsys.readouterr().err
        assert status == 2, err
        assert err == f"egodyn label: {traj}:{self.BOM_MESSAGE}\n"


def _docs_command_keys():
    """The "Command configs" table of docs/formats.md as ``COMMAND_KEYS``."""
    text = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text("utf-8")
    table = {}
    for line in text.split("## Command configs", 1)[1].splitlines():
        if line.startswith("| `"):
            command, required, optional = (
                re.findall(r"`([^`]+)`", cell) for cell in line.strip("|").split("|")
            )
            table[command[0]] = (tuple(required), tuple(optional))
    return table


# flag -> the config key it overrides; a command has the flag if it reads the key
_FLAG_KEYS = {"--alpha": "alphas", "--encoding": "encoding", "--seed": "seed"}
_FLAG_VALUES = {"--alpha": "1.5", "--encoding": "full", "--seed": "1"}


class TestCommandKeys:
    """Each command reads the config keys and flags of ``cli.COMMAND_KEYS``;
    any other key or flag, a missing required key, and a value of the
    wrong type exit 2 naming the key."""

    def exit_2_message(self, tmp_path, capsys, command, config):
        status = run_cli(command, {"out": str(tmp_path / "o"), **config}, tmp_path)
        err = capsys.readouterr().err
        assert status == 2, err
        return err

    def test_docs_table_equals_command_keys(self):
        assert _docs_command_keys() == COMMAND_KEYS

    @pytest.mark.parametrize(
        "command,flag",
        [(command, flag) for command, keys in COMMAND_KEYS.items()
         for flag, key in _FLAG_KEYS.items() if key not in keys[0] + keys[1]],
    )
    def test_flag_the_command_does_not_read(self, tmp_path, capsys, command, flag):
        config = tmp_path / "config.json"
        io.write_json(config, {})
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(config), flag, _FLAG_VALUES[flag]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_synth_seed_flag_overrides_the_config(self, tmp_path):
        out_flag, out_config = tmp_path / "flag", tmp_path / "config"
        assert run_cli("synth", {"count": 2, "seed": 0, "out": str(out_flag)}, tmp_path,
                       "a.json", extra=["--seed", "4"]) == 0
        assert run_cli("synth", {"count": 2, "seed": 4, "out": str(out_config)}, tmp_path,
                       "b.json") == 0
        name = "trajectories.jsonl"
        assert (out_flag / name).read_bytes() == (out_config / name).read_bytes()

    def test_unknown_label_key(self, tmp_path, capsys):
        traj = tmp_path / "trajectories.jsonl"
        io.write_jsonl(traj, _pose_rows("a"))
        err = self.exit_2_message(
            tmp_path, capsys, "label", {"input": str(traj), "windows_s": 2.0}
        )
        assert "label does not read config key(s) ['windows_s']" in err

    def test_balance_targets(self, tmp_path, capsys):
        labels = tmp_path / "labels.jsonl"
        io.write_jsonl(labels, _label_rows(["c1", "c2"]))
        targets = {q: {a: 1.0 for a in ANSWER_SPACES[q]} for q in QUESTION_ORDER}
        err = self.exit_2_message(
            tmp_path, capsys, "balance", {"labels": str(labels), "n": 1, "targets": targets}
        )
        assert "balance does not read config key(s) ['targets']" in err

    @pytest.mark.parametrize(
        "command,named", [("balance", "'n'"), ("sweep", "'alphas' (or --alpha)")]
    )
    def test_missing_required_key(self, tmp_path, capsys, command, named):
        labels = tmp_path / "labels.jsonl"
        io.write_jsonl(labels, _label_rows(["c1", "c2"]))
        traj = tmp_path / "trajectories.jsonl"
        io.write_jsonl(traj, _pose_rows("a"))
        config = {
            "balance": {"labels": str(labels)},
            "sweep": {"trajectories": str(traj), "predictions": {"m": str(labels)}},
        }[command]
        err = self.exit_2_message(tmp_path, capsys, command, config)
        assert f"{command} config lacks required key {named}" in err

    @pytest.mark.parametrize(
        "command,key,value,named",
        [("label", "input", 5, "input must be a file path string"),
         ("label", "out", 5, "out must be a directory path string"),
         ("label", "thresholds", "", "thresholds path is not an existing file: ''"),
         ("evaluate", "predictions", {"m": "rows.jsonl"},
          "predictions must be a file path string"),
         ("sweep", "predictions", {"m": 5}, "sweep predictions must map"),
         ("baseline", "kind", ["flow"], "baseline kind must be one of")],
    )
    def test_value_of_the_wrong_type(
        self, tmp_path, capsys, monkeypatch, command, key, value, named
    ):
        monkeypatch.chdir(tmp_path)  # so that the relative rows.jsonl exists
        traj = tmp_path / "trajectories.jsonl"
        io.write_jsonl(traj, _pose_rows("a"))
        rows = tmp_path / "rows.jsonl"
        io.write_jsonl(rows, _label_rows(["c1"]))
        config = {
            "label": {"input": str(traj)},
            "evaluate": {"truth": str(rows)},
            "sweep": {"trajectories": str(traj), "alphas": [1.0]},
            "baseline": {"proxies": str(traj)},
        }[command]
        err = self.exit_2_message(tmp_path, capsys, command, {**config, key: value})
        assert named in err

    @pytest.mark.parametrize(
        "mix,named",
        [({"nope": 1.0}, "unknown templates in regime_mix: ['nope']"),
         ([1.0], "regime_mix must map template names to weights, got list"),
         ({"cruise_urban": 0}, "regime_mix weights must not all be zero"),
         ({"cruise_urban": -1.0}, "weight of 'cruise_urban'"),
         ({"cruise_urban": math.nan}, "weight of 'cruise_urban'"),
         ({"cruise_urban": "1"}, "weight of 'cruise_urban'")],
    )
    def test_synth_regime_mix(self, tmp_path, capsys, mix, named):
        config = {"count": len(TEMPLATE_NAMES) + 1, "regime_mix": mix}
        err = self.exit_2_message(tmp_path, capsys, "synth", config)
        assert named in err

    @pytest.mark.parametrize("schema", ["pose", "rate"])
    def test_derivation_overflow_names_the_clip(self, tmp_path, capsys, schema):
        rows = _ROWS[schema]("a") + _overflowing_rows("b", schema)
        traj = tmp_path / "trajectories.jsonl"
        io.write_jsonl(traj, rows)
        err = self.exit_2_message(tmp_path, capsys, "label", {"input": str(traj)})
        assert "clip 'b': state derivation overflows" in err
        assert "clip 'a'" not in err


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedInputs:
    """``sweep`` shares its models' tables, and ``evaluate`` its truth
    table and the parts of its predictions file, between the command and
    a forked child (``cli._job_queue``) when the process may use two CPUs,
    and builds them inline on one. Both paths write the same bytes and
    name the same first error, that of the first failing input in config
    order, and leave no child behind."""

    MODELS = 4

    @pytest.fixture(params=["inline", "forked"])
    def path(self, request, monkeypatch):
        """Force one path through the CPU check, and count the forks."""
        cpus = {0} if request.param == "inline" else {0, 1}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        yield request.param, forks
        _no_child_left()

    @pytest.fixture
    def corpus(self, tmp_path):
        """Trajectories, truth and four models' free-text predictions."""
        synth_out = tmp_path / "synth"
        assert run_cli("synth", {"count": 6, "seed": 2, "out": str(synth_out)}, tmp_path) == 0
        truth = synth_out / "expected_labels.jsonl"
        predictions = {}
        for k in range(self.MODELS):
            path = predictions[f"m{k}"] = tmp_path / f"pred_m{k}.jsonl"
            io.write_jsonl(path, [
                {"clip_id": r["clip_id"], "question_id": r["question_id"],
                 "response": r["answer"] if (i + k) % 3 else
                 f"I think: {ANSWER_SPACES[r['question_id']][k % 2]}"}
                for i, r in enumerate(io.read_jsonl(truth))
            ])
        return {"trajectories": synth_out / "trajectories.jsonl", "truth": truth,
                "predictions": predictions}

    @staticmethod
    def config(command, corpus, out):
        if command == "sweep":
            return {"trajectories": str(corpus["trajectories"]), "alphas": [0.8, 1.0, 1.25],
                    "predictions": {m: str(p) for m, p in corpus["predictions"].items()},
                    "out": str(out)}
        return {"truth": str(corpus["truth"]), "predictions": str(corpus["predictions"]["m0"]),
                "out": str(out)}

    @staticmethod
    def break_line(path, line):
        """Make ``line`` of ``path`` invalid JSON."""
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[line - 1] = '{"clip_id": \n'
        path.write_text("".join(lines), encoding="utf-8")

    @pytest.mark.parametrize("command", ["sweep", "evaluate"])
    def test_both_paths_write_the_same_bytes(self, tmp_path, monkeypatch, corpus, command):
        out = tmp_path / "out"
        written = {}
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            assert run_cli(command, self.config(command, corpus, out), tmp_path) == 0
            written[len(cpus)] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            _no_child_left()
        assert "manifest.json" in written[1]
        assert written[1] == written[2]

    @pytest.mark.parametrize("command", ["sweep", "evaluate"])
    def test_one_fork_on_two_cpus(self, tmp_path, corpus, path, command):
        mode, forks = path
        assert run_cli(command, self.config(command, corpus, tmp_path / "out"), tmp_path) == 0
        assert len(forks) == (mode == "forked")

    @pytest.mark.parametrize(
        "broken,named",
        [(("trajectories", "m3"), "trajectories.jsonl:3: invalid JSON"),
         (("m0", "m3"), "pred_m0.jsonl:3: invalid JSON"),
         (("m1", "m3"), "pred_m1.jsonl:3: invalid JSON"),
         (("m3",), "pred_m3.jsonl:3: invalid JSON")],
        ids=["trajectories-before-m3", "m0-before-m3", "m1-before-m3", "m3-alone"],
    )
    def test_sweep_names_the_first_failing_input(
        self, tmp_path, capsys, corpus, path, broken, named
    ):
        paths = {"trajectories": corpus["trajectories"], **corpus["predictions"]}
        for name in broken:
            self.break_line(paths[name], 3)
        status = run_cli("sweep", self.config("sweep", corpus, tmp_path / "out"), tmp_path)
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith(f"egodyn sweep: {tmp_path}/") and named in err, err

    def test_sweep_names_a_model_value_in_the_child(self, tmp_path, capsys, corpus, path):
        rows = io.read_jsonl(corpus["predictions"]["m3"])
        rows[4]["model"] = 7
        io.write_jsonl(corpus["predictions"]["m3"], rows)
        status = run_cli("sweep", self.config("sweep", corpus, tmp_path / "out"), tmp_path)
        err = capsys.readouterr().err
        assert status == 2
        assert err == (f"egodyn sweep: {corpus['predictions']['m3']}:5: "
                       "field 'model' holds a number, not a string\n")

    @pytest.mark.parametrize(
        "broken,named",
        [(("truth", "predictions"), "expected_labels.jsonl:3: invalid JSON"),
         (("truth",), "expected_labels.jsonl:3: invalid JSON"),
         (("predictions",), "pred_m0.jsonl:3: invalid JSON")],
        ids=["truth-before-predictions", "truth-alone", "predictions-alone"],
    )
    def test_evaluate_names_the_truth_first(self, tmp_path, capsys, corpus, path, broken, named):
        paths = {"truth": corpus["truth"], "predictions": corpus["predictions"]["m0"]}
        for name in broken:
            self.break_line(paths[name], 3)
        status = run_cli("evaluate", self.config("evaluate", corpus, tmp_path / "out"), tmp_path)
        err = capsys.readouterr().err
        assert status == 2
        assert named in err, err

    @pytest.mark.parametrize(
        "command,order",
        [("sweep", ["trajectories", "pred_m0", "pred_m1", "pred_m2", "pred_m3"]),
         ("evaluate", ["expected_labels", "pred_m0"])],
    )
    def test_inline_inputs_keep_the_serial_order(
        self, tmp_path, monkeypatch, corpus, command, order
    ):
        """On one CPU every input is read in the serial order, so no more
        of them is held at once than before."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        read, iter_jsonl = [], io.iter_jsonl
        monkeypatch.setattr(io, "iter_jsonl", lambda path, *span: (
            read.append(Path(path).stem) or iter_jsonl(path, *span)))
        assert run_cli(command, self.config(command, corpus, tmp_path / "out"), tmp_path) == 0
        assert read == order

    @pytest.mark.parametrize(
        "command,stalls,interrupted",
        [("sweep", "_prediction_table", "_load_clips"),
         ("evaluate", "_truth_table", "_coded_chunk")],
    )
    def test_an_interrupt_kills_and_reaps_the_child(
        self, tmp_path, monkeypatch, corpus, command, stalls, interrupted
    ):
        """The parent is interrupted while the child still works: the
        interrupt ends the command at once and no child is left."""

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(cli, stalls, lambda *args, **kwargs: time.sleep(60))
        monkeypatch.setattr(cli, interrupted, interrupt)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_cli(command, self.config(command, corpus, tmp_path / "out"), tmp_path)
        assert time.monotonic() - start < 30
        _no_child_left()


def _run_on_one_and_two_cpus(tmp_path, monkeypatch, capsys, command, config, extra=()):
    """``command`` on one CPU, then on two: per CPU count, its status,
    stderr, forks, output bytes (the manifest too) and whether the command
    coded a whole predictions file, as the serial path does; no child is
    left."""
    runs = {}
    for cpus in ({0}, {0, 1}):
        forks, fork, serial, coded = [], os.fork, [], cli._coded_predictions
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(cli, "_coded_predictions", lambda *a: serial.append(1) or coded(*a))
        out = Path(config["out"])
        status = run_cli(command, config, tmp_path, extra=extra)
        written = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if status == 0 \
            else None
        runs[len(cpus)] = (status, capsys.readouterr().err, len(forks), written, bool(serial))
        monkeypatch.undo()
        _no_child_left()
    return runs


class TestEvaluateChunks:
    """On two CPUs ``evaluate`` cuts its predictions file at line starts
    (``io.line_spans``) into up to ``cli._CHUNKS`` parts, which the command
    and its child, once it has built the truth table, code from one job
    queue. Both paths write the same bytes, the manifest included, and
    name the same first error, with one fork on two CPUs and none on one."""

    @staticmethod
    def write_inputs(tmp_path, rows=None, truth_rows=None, text=None):
        """The truth of 40 synth clips and a predictions file: ``rows``, or
        ``text`` as it is, or a free-text row per truth row."""
        suite = generate_suite(40, seed=6)
        truth = tmp_path / "truth.jsonl"
        io.write_jsonl(truth, truth_rows or [
            {"clip_id": clip.clip_id, "question_id": q, "answer": clip.expected[q]}
            for clip in suite for q in QUESTION_ORDER])
        if rows is None:
            rows = [{"clip_id": r["clip_id"], "question_id": r["question_id"],
                     "response": r["answer"] if i % 4 else f"Answer:\n{r['answer']}."}
                    for i, r in enumerate(io.read_jsonl(truth))]
        predictions = tmp_path / "predictions.jsonl"
        if text is None:
            io.write_jsonl(predictions, rows)
        else:
            predictions.write_text(text, encoding="utf-8", newline="")
        return {"truth": str(truth), "predictions": str(predictions),
                "out": str(tmp_path / "out")}

    def check_ok(self, tmp_path, monkeypatch, capsys, config):
        runs = _run_on_one_and_two_cpus(tmp_path, monkeypatch, capsys, "evaluate", config)
        (status, err, forks, written, _), forked = runs[1], runs[2]
        assert (status, err, forks) == (0, "", 0) and forked[:3] == (0, "", 1)
        assert "manifest.json" in written
        assert forked[3] == written and not forked[4]  # the chunks, not the serial path

    def check_fault(self, tmp_path, monkeypatch, capsys, config, named):
        runs = _run_on_one_and_two_cpus(tmp_path, monkeypatch, capsys, "evaluate", config)
        (status, err, forks, _, _), forked = runs[1], runs[2]
        assert (status, forks) == (2, 0) and forked[:3] == (2, err, 1)
        assert err.startswith("egodyn evaluate: ") and named in err, err

    def test_a_file_in_chunks_writes_the_same_bytes(self, tmp_path, monkeypatch, capsys):
        config = self.write_inputs(tmp_path)
        assert len(io.line_spans(config["predictions"], cli._CHUNKS)) == cli._CHUNKS
        self.check_ok(tmp_path, monkeypatch, capsys, config)

    @pytest.mark.parametrize("lines", [0, 1, 3, 15])
    def test_fewer_lines_than_chunks(self, tmp_path, monkeypatch, capsys, lines):
        config = self.write_inputs(tmp_path)
        rows = io.read_jsonl(config["predictions"])[:lines]
        config = self.write_inputs(tmp_path, rows)
        assert len(io.line_spans(config["predictions"], cli._CHUNKS)) == max(lines, 1)
        self.check_ok(tmp_path, monkeypatch, capsys, config)

    @pytest.mark.parametrize("newline", ["\r\n", "\n \t\r\n\n", "\r\n\r\n  \n"])
    def test_crlf_and_blank_lines_at_the_cuts(self, tmp_path, monkeypatch, capsys, newline):
        """Every row ends in ``newline``, so every cut is after a CRLF, and
        with blank lines many cuts start a blank line."""
        config = self.write_inputs(tmp_path)
        rows = io.read_jsonl(config["predictions"])
        config = self.write_inputs(tmp_path, text="".join(
            io.json_text(row) + newline for row in rows))
        data = Path(config["predictions"]).read_bytes()
        starts = [start for start, _ in io.line_spans(config["predictions"], cli._CHUNKS)]
        assert len(starts) == cli._CHUNKS
        assert all(data[start - 2:start] == b"\r\n" or data[start - 1:start] == b"\n"
                   for start in starts[1:])
        if newline != "\r\n":
            assert any(data[start:start + 1] in b" \r\n" for start in starts[1:])
        self.check_ok(tmp_path, monkeypatch, capsys, config)

    def test_string_and_number_clip_ids(self, tmp_path, monkeypatch, capsys):
        """Prediction rows whose clip ids are JSON numbers, for clips without
        truth, in every chunk among string ids."""
        config = self.write_inputs(tmp_path)
        rows = io.read_jsonl(config["predictions"])
        for i in range(0, len(rows), 7):
            rows[i] = {**rows[i], "clip_id": [i, -i - 0.5][i % 2]}
        config = self.write_inputs(tmp_path, rows)
        self.check_ok(tmp_path, monkeypatch, capsys, config)

    def test_two_rows_for_one_cell_in_different_chunks(self, tmp_path, monkeypatch, capsys):
        config = self.write_inputs(tmp_path)
        rows = io.read_jsonl(config["predictions"])
        config = self.write_inputs(tmp_path, rows + [{**rows[1], "response": "no idea"}])
        spans = io.line_spans(config["predictions"], cli._CHUNKS)
        assert spans[-1][0] > len(io.json_text(rows[0])) * 2  # rows 1 and -1 in two chunks
        self.check_fault(tmp_path, monkeypatch, capsys, config,
                         f"clip {rows[1]['clip_id']!r}, question "
                         f"{rows[1]['question_id']!r}: two prediction rows")

    @pytest.mark.parametrize(
        "fault,named",
        [("question", ":560: clip 'synth_0039': unknown question id 'bogus'"),
         ("model", ":560: field 'model' holds a number, not a string"),
         ("stage", ":560: field 'stage' holds an object, not a string"),
         ("array_id", ":560: field 'clip_id' holds an array, not a string or a number"),
         ("json", ":560: invalid JSON")],
    )
    def test_a_fault_in_the_last_chunk(self, tmp_path, monkeypatch, capsys, fault, named):
        """A fault on the last line, in the last chunk, which the child
        may code; the line is named as by reading the whole file."""
        config = self.write_inputs(tmp_path)
        rows = io.read_jsonl(config["predictions"])
        last = dict(rows[-1])
        if fault == "question":
            last["question_id"] = "bogus"
        elif fault == "model":
            last["model"] = 3
        elif fault == "stage":
            del last["response"]
            last.update(parsed="left", question_id="turn_direction", stage={"a": 1})
        elif fault == "array_id":
            last["clip_id"] = [last["clip_id"]]
        lines = [io.json_text(row) + "\n" for row in rows[:-1]]
        lines.append('{"clip_id": \n' if fault == "json" else io.json_text(last) + "\n")
        config = self.write_inputs(tmp_path, text="".join(lines))
        assert len(lines) == 560
        self.check_fault(tmp_path, monkeypatch, capsys, config, named)

    @pytest.mark.parametrize("predictions_fault", [False, True])
    def test_a_fault_in_the_truth_is_named_first(
        self, tmp_path, monkeypatch, capsys, predictions_fault
    ):
        config = self.write_inputs(tmp_path)
        rows = io.read_jsonl(config["predictions"])
        if predictions_fault:
            rows[-1] = {**rows[-1], "question_id": "bogus"}
        truth = io.read_jsonl(config["truth"])
        del truth[200]["answer"]
        config = self.write_inputs(tmp_path, rows, truth_rows=truth)
        self.check_fault(tmp_path, monkeypatch, capsys, config,
                         "truth.jsonl:201: row lacks field 'answer'")


class TestJobQueue:
    """``cli._job_queue`` shares its jobs between the command and one forked
    child: each job runs once, job 0 in the child, and the results come in
    job order. Where a job fails, or there is no child, ``collect`` returns
    None; no child is left either way."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        yield
        _no_child_left()

    def test_results_come_in_job_order(self, tmp_path):
        runs = tmp_path / "runs"

        def job(index):
            with runs.open("a", encoding="utf-8") as handle:  # the child's runs count too
                handle.write(f"{index}\n")
            return index, os.getpid()

        jobs = [lambda k=k: job(k) for k in range(40)]
        with cli._job_queue(jobs) as collect:
            results = collect()
        assert [index for index, _ in results] == list(range(40))
        assert results[0][1] != os.getpid()  # the child runs job 0
        assert sorted(map(int, runs.read_text(encoding="utf-8").split())) == list(range(40))

    def test_the_command_runs_job_1_however_late_it_collects(self):
        # sweep reads its trajectories before collect; meanwhile the child
        # may take every index of the queue, but never job 1
        with cli._job_queue([os.getpid] * 4) as collect:
            time.sleep(0.3)
            results = collect()
        assert results[1] == os.getpid() and os.getpid() not in results[:1] + results[2:]

    @pytest.mark.parametrize("failing", [0, 1, 39])
    def test_a_failed_job_in_either_process_gives_none(self, failing):
        def job(index):
            if index == failing:
                raise ValueError(index)
            return index

        with cli._job_queue([lambda k=k: job(k) for k in range(40)]) as collect:
            assert collect() is None

    @pytest.mark.parametrize("count", [0, cli._MAX_JOBS + 1])
    def test_no_child_without_jobs_or_beyond_the_queue(self, monkeypatch, count):
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        with cli._job_queue([int] * count) as collect:
            assert collect() is None
        assert forks == []

    def test_an_uncollected_child_is_killed_and_reaped(self):
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            with cli._job_queue([lambda: time.sleep(60)] * 2):
                raise KeyboardInterrupt
        assert time.monotonic() - start < 30


class TestStreamedInputs:
    """``balance``, ``evaluate`` (the command and its child), ``sweep``'s
    prediction files and ``parse`` fold keyed rows as ``io.iter_jsonl``
    decodes them: on valid input they read no file as a list and parse each
    free-text row once, on one CPU and on two. A fold that fails mid-file
    closes its stream before the file is read again as a list to name the
    fault."""

    MODELS, corpus = TestForkedInputs.MODELS, TestForkedInputs.corpus

    @pytest.fixture(params=[{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: request.param, raising=False)
        yield
        _no_child_left()

    @staticmethod
    def config(command, corpus, out):
        if command in ("sweep", "evaluate"):
            return TestForkedInputs.config(command, corpus, out)
        if command == "parse":
            return {"predictions": str(corpus["predictions"]["m0"]), "out": str(out)}
        return {"labels": str(corpus["truth"]), "n": 3, "out": str(out)}

    @pytest.mark.parametrize("command", ["balance", "evaluate", "sweep", "parse"])
    def test_valid_inputs_are_read_as_streams(self, tmp_path, monkeypatch, corpus, cpus, command):
        def as_list(path, *span):
            # raised in a forked child too, whose error the command raises
            if Path(path).stem != "trajectories":
                raise AssertionError(f"{path} read as a list")
            return read_jsonl(path, *span)

        def counting(raw, tables):  # a file, so that a forked child's calls count too
            with calls.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(raw) + "\n")
            return parse_code(raw, tables)

        read_jsonl, parse_code, calls = io.read_jsonl, parsing.parse_code, tmp_path / "calls"
        calls.touch()
        monkeypatch.setattr(io, "read_jsonl", as_list)
        monkeypatch.setattr(io, "read_predictions", as_list)
        monkeypatch.setattr(parsing, "parse_code", counting)
        assert run_cli(command, self.config(command, corpus, tmp_path / "out"), tmp_path) == 0
        models = {"balance": [], "evaluate": ["m0"], "parse": ["m0"]}.get(
            command, list(corpus["predictions"]))
        responses = [row["response"] for model in models
                     for row in read_jsonl(corpus["predictions"][model])]
        parsed = [json.loads(line) for line in calls.read_text(encoding="utf-8").splitlines()]
        assert sorted(parsed) == sorted(responses)

    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    @pytest.mark.parametrize(
        "command,broken,named",
        [("balance", "truth", ":3: row lacks field 'answer'"),
         ("evaluate", "truth", ":3: row lacks field 'answer'"),
         ("evaluate", "m0", ":3: clip 'synth_0000': unknown question id 'bogus'"),
         ("parse", "m0", ":3: clip 'synth_0000': unknown question id 'bogus'"),
         ("sweep", "m0", ":3: clip 'synth_0000': unknown question id 'bogus'")],
    )
    def test_a_failed_fold_closes_its_stream(
        self, tmp_path, monkeypatch, capsys, corpus, command, broken, named
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        path = corpus["truth"] if broken == "truth" else corpus["predictions"][broken]
        rows = io.read_jsonl(path)
        if broken == "truth":
            del rows[2]["answer"]
        else:
            rows[2]["question_id"] = "bogus"
        io.write_jsonl(path, rows)
        opened, text = [], io._text
        monkeypatch.setattr(io, "_text", lambda *args: opened.append(text(*args)) or opened[-1])
        read_jsonl = io.read_jsonl

        def as_list(where, *span):
            if Path(where) == path:  # read again to name the fault
                assert opened and all(handle.closed for handle in opened)
            return read_jsonl(where, *span)

        monkeypatch.setattr(io, "read_jsonl", as_list)
        status = run_cli(command, self.config(command, corpus, tmp_path / "out"), tmp_path)
        gc.collect()
        assert status == 2
        assert capsys.readouterr().err == f"egodyn {command}: {path}{named}\n"
        assert all(handle.closed for handle in opened)


def _mixed_rows(count: int = 9, seed: int = 3) -> list[dict]:
    """Rows of ``count`` synth clips cycling pose, rate and full-state
    schemas; every clip has positions, given or derived."""
    rows = []
    for k, clip in enumerate(generate_suite(count, seed=seed)):
        seq, clip_id = clip.seq, clip.clip_id
        if k % 3 == 2:
            rows += io.sequence_to_rows(clip_id, seq)
            continue
        names = (("x", "x"), ("y", "y"), ("heading", "theta")) if k % 3 == 0 else (
            ("v", "v"), ("omega", "omega"))
        columns = [seq.t.tolist()] + [getattr(seq, name).tolist() for _, name in names]
        rows += [{"clip_id": clip_id, **dict(zip(["t", *(key for key, _ in names)], values))}
                 for values in zip(*columns)]
    return rows


def _long_pose_rows(clip_id: str, hz: int) -> list[dict]:
    """A pose log of one synth clip sampled at ``hz`` over its 3 s."""
    seq = generate_suite(1, seed=5)[0].seq
    t = np.linspace(0.0, 3.0, 3 * hz + 1)
    columns = [np.interp(t, seq.t, getattr(seq, name)).tolist() for name in ("x", "y", "theta")]
    return [{"clip_id": clip_id, "t": ti, "x": x, "y": y, "heading": h}
            for ti, x, y, h in zip(t.tolist(), *columns)]


class TestLabelSplit:
    """``label`` on two CPUs cuts a JSONL input at ``io.clip_boundary``: a
    forked child labels the clips after the cut while the command labels
    those before it. Both paths write the same bytes, the manifest
    included, and name the same first error, and no child is left."""

    ENCODINGS = [None, "summary", "coordinates", "full"]

    @staticmethod
    def write_input(tmp_path, layout: str) -> Path:
        path = tmp_path / "trajectories.jsonl"
        if layout == "straddle":  # a long clip holds the middle byte; the cut is at 'c'
            rows = (_pose_rows("a") + _long_pose_rows("long", 100)
                    + [{**r, "clip_id": "c"} for r in _mixed_rows(2)[31:]])
            io.write_jsonl(path, rows)
            data = path.read_bytes()
            long_rows = data.index(b'"clip_id": "long"'), data.index(b'"clip_id": "c"')
            assert long_rows[0] < len(data) // 2 < long_rows[1]
            assert io.clip_boundary(path) == data.rfind(b"\n", 0, long_rows[1]) + 1
        else:
            text = io.jsonl_text(_mixed_rows())
            if layout == "crlf":
                text = text.replace("\n", "\r\n")
            path.write_bytes(text.encode("utf-8"))
        return path

    @staticmethod
    def run_both(tmp_path, monkeypatch, capsys, path, encoding=None):
        """``label`` on one CPU, then on two (``_run_on_one_and_two_cpus``)."""
        return _run_on_one_and_two_cpus(
            tmp_path, monkeypatch, capsys, "label",
            {"input": str(path), "out": str(tmp_path / "out")},
            ["--encoding", encoding] if encoding else [])

    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("layout", ["mixed", "straddle", "crlf"])
    def test_both_paths_write_the_same_bytes(
        self, tmp_path, monkeypatch, capsys, layout, encoding
    ):
        path = self.write_input(tmp_path, layout)
        runs = self.run_both(tmp_path, monkeypatch, capsys, path, encoding)
        (status, _, forks, written, _), forked = runs[1], runs[2]
        assert (status, forks) == (0, 0) and forked[:3] == (0, "", 1)
        assert "manifest.json" in written and ("prompts.jsonl" in written) == bool(encoding)
        assert forked[3] == written

    @pytest.mark.parametrize("case", ["clips", "csv", "one_clip", "empty"])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_one_fork_only_for_a_cut_file_on_two_cpus(self, tmp_path, monkeypatch, case, cpus):
        rows = _pose_rows("a") + _rate_rows("b") + _pose_rows("c")
        path = tmp_path / ("trajectories.csv" if case == "csv" else "trajectories.jsonl")
        if case == "csv":
            keys = ["clip_id", "t", "x", "y", "heading"]
            path.write_text(",".join(keys) + "\n" + "".join(
                ",".join(str(row[key]) for key in keys) + "\n" for row in _pose_rows("a")
                + _pose_rows("b")), encoding="utf-8")
        else:
            io.write_jsonl(path, {"clips": rows, "one_clip": _pose_rows("a"), "empty": []}[case])
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        assert run_cli("label", {"input": str(path), "out": str(tmp_path / "o")}, tmp_path) == 0
        assert len(forks) == (case == "clips" and cpus == 2)
        _no_child_left()

    @pytest.mark.parametrize(
        "case,named",
        [("first", ":3: invalid JSON"), ("second", ":180: invalid JSON"),
         ("both", ":3: invalid JSON"),
         ("repeat", "clip 'a': rows are not contiguous (interrupted by clip 'e')"),
         ("overflow", "clip 'f': summary statistics overflow: a summary value is not finite"),
         ("positions", "clip 'f': coordinates encoding needs x and y channels")],
    )
    def test_both_paths_name_the_same_first_error(
        self, tmp_path, monkeypatch, capsys, case, named
    ):
        """Faults in either part, a clip in both, and the checks after the
        reading (summary overflow, positions) in the child's part."""
        ids = "abcdef"
        rows = [row for k, clip_id in enumerate(ids)
                for row in (_pose_rows if k % 2 == 0 else _rate_rows)(clip_id)]
        if case == "repeat":
            rows[-31:] = _pose_rows("a")
        if case == "overflow":
            rows[-31:] = [{**row, "v": 1e308} for row in _state_rows("f")]
        if case == "positions":
            rows[-31:] = _state_rows("f")
        lines = io.jsonl_text(rows).splitlines(keepends=True)
        for index in {"first": [2], "second": [179], "both": [2, 179]}.get(case, []):
            lines[index] = '{"clip_id": \n'
        path = tmp_path / "trajectories.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        cut = path.read_bytes()[:io.clip_boundary(path)].count(b"\n")  # lines before the cut
        assert 2 < cut <= 155  # lines 3 and 180, and clip 'f', are on either side
        runs = self.run_both(tmp_path, monkeypatch, capsys, path,
                             "coordinates" if case == "positions" else None)
        (status, err, forks, _, _), forked = runs[1], runs[2]
        assert (status, forks) == (2, 0) and forked[:3] == (2, err, 1)
        assert err.startswith("egodyn label: ") and named in err, err

    def test_an_interrupt_kills_and_reaps_the_child(self, tmp_path, monkeypatch):
        """The command is interrupted while the child labels its part: the
        interrupt ends the command at once and no child is left."""

        def label_clips(cfg, thresholds, start=0, end=None):
            if not start:  # the child's part, job 0
                time.sleep(60)
            raise KeyboardInterrupt

        path = self.write_input(tmp_path, "mixed")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(cli, "_label_clips", label_clips)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_cli("label", {"input": str(path), "out": str(tmp_path / "o")}, tmp_path)
        assert time.monotonic() - start < 30
        _no_child_left()
