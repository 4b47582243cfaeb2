"""The text writers of ``evaluate`` and ``parse`` write the dict path's bytes.

``report.write_parsed_predictions`` must write what ``io.write_jsonl``
writes for the same filled rows, and ``report.build_evaluation_report``
must return what ``json.dumps(indent=2, sort_keys=True,
ensure_ascii=False)`` gives for the report built as a dict, with one
``consistency.clip_consistency(...).to_dict()`` per clip and WPCR and PCov
taken over those objects. Both are compared byte for byte on hypothesis
inputs. ``cli.main`` freezes the import-time heap for the command only.
"""

from __future__ import annotations

import gc
import json
import weakref
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egodyn import cli, consistency, io, report
from egodyn.errors import ConfigError
from egodyn.questions import ANSWER_SPACES, QUESTION_ORDER, UNPARSED, AnswerTable

# ------------------------------------------------------------ parsed rows

# quotes, backslashes, control characters and non-ASCII text
texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12) | st.sampled_from(
    ['say "left"', "back\\slash", "tab\tnew\nline\x00\x1f", "gauche — à", "🚗 left", ""])
ids = (texts | st.integers(-10**20, 10**20) | st.booleans()
       | st.floats(allow_nan=True, allow_infinity=True))
json_values = (st.none() | st.booleans() | st.integers() | texts
               | st.lists(st.integers(), max_size=2))


@st.composite
def prediction_rows(draw):
    """A row of a predictions file: free text, or pre-parsed with or
    without a stage; maybe a model and keys the engine does not read."""
    question = draw(st.sampled_from(QUESTION_ORDER))
    row = {"clip_id": draw(ids), "question_id": question}
    if draw(st.booleans()):
        label = draw(st.sampled_from(ANSWER_SPACES[question]))
        row["response"] = draw(st.sampled_from([label, f"Answer: {label}."]) | texts)
    else:
        row["parsed"] = draw(st.sampled_from(ANSWER_SPACES[question] + (UNPARSED,)))
        if draw(st.booleans()):
            row["stage"] = draw(st.sampled_from(["external", "manual"]) | json_values)
    if draw(st.booleans()):
        row["model"] = draw(st.sampled_from(["m1", "mödel \"2\""]) | json_values)
    if draw(st.integers(0, 3)) == 0:
        row[draw(st.sampled_from(["answer", "template", "a", "zz"]))] = draw(json_values)
    return row


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(prediction_rows(), max_size=12))
def test_parsed_rows_equal_write_jsonl(tmp_path_factory, rows):
    report.prediction_codes(rows, fill=True)
    where = tmp_path_factory.mktemp("parsed")
    report.write_parsed_predictions(where / "text.jsonl", rows)
    io.write_jsonl(where / "dicts.jsonl", rows)
    assert (where / "text.jsonl").read_bytes() == (where / "dicts.jsonl").read_bytes()


# ------------------------------------------------------------- report.json

# the questions the rules read, each left absent, unparsed or answered
RULE_QUESTIONS = sorted({condition.question for rule in consistency.RULES_V1
                         for condition in (rule.antecedent, rule.consequent)})
string_ids = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)
numeric_ids = st.integers(-10**6, 10**20) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def evaluations(draw):
    """Truth and pre-parsed predictions, as ``(clip, question, label)``
    rows, for one or more clips whose ids are all strings or all numbers."""
    clip_ids = draw(st.lists(draw(st.sampled_from([string_ids, numeric_ids])),
                             min_size=1, max_size=8, unique=True))
    truth, predictions = [], []
    for clip_id in clip_ids:
        for question in QUESTION_ORDER:
            space = ANSWER_SPACES[question]
            if question in RULE_QUESTIONS or draw(st.booleans()):
                truth.append((clip_id, question, draw(st.sampled_from(space))))
            choice = draw(st.sampled_from(("absent", UNPARSED) + space))
            if choice != "absent":
                predictions.append((clip_id, question, choice))
    return truth, predictions


def dict_report(text: str, truth, predictions) -> str:
    """``report.json`` rebuilt through the per-clip wrapper and the dict
    encoder: every value but the per-clip block and WPCR and PCov is
    read back from ``text``."""
    doc = json.loads(text)
    cells = {(clip, question) for clip, question, _ in truth}
    answers = {}
    for clip, question, label in predictions:
        if (clip, question) in cells:
            answers.setdefault(clip, {})[question] = label
    clips = [consistency.clip_consistency(clip_id, answers.get(clip_id, {}))
             for clip_id in sorted({clip for clip, _, _ in truth})]
    doc["per_clip_consistency"] = [clip.to_dict() for clip in clips]
    doc["aggregate"]["wpcr"] = consistency.wpcr(clips)
    doc["aggregate"]["pcov"] = consistency.pcov(clips)
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


@settings(max_examples=150, deadline=None)
@given(evaluations())
@example(([("c1", "turn_direction", "left")], [("c1", "turn_direction", "straight")]))
@example(([(7, "heading_change", "yes"), (7, "turn_direction", "left")],
          [(7, "heading_change", "yes"), (7, "turn_direction", "straight")]))
def test_report_equals_dict_report(inputs):
    truth, predictions = inputs
    text = report.build_evaluation_report(
        AnswerTable.from_rows(truth), AnswerTable.from_rows(predictions, predicted=True),
        "truth.jsonl")
    assert text == dict_report(text, truth, predictions)


def test_every_rule_is_triggered_held_and_violated_in_one_report():
    """One report whose clips hit each rule in each of its outcomes, so
    every rule id is written in both lists."""
    truth, predictions = [], []
    for k, rule in enumerate(consistency.RULES_V1):
        for outcome in ("held", "violated", "open"):
            clip_id = f"{rule.rule_id}-{outcome}"
            antecedent = rule.antecedent
            a_label = antecedent.label if antecedent.op == "eq" else next(
                x for x in ANSWER_SPACES[antecedent.question] if x != antecedent.label)
            c = rule.consequent
            held = c.label if c.op == "eq" else next(
                x for x in ANSWER_SPACES[c.question] if x != c.label)
            broken = c.label if c.op == "ne" else next(
                x for x in ANSWER_SPACES[c.question] if x != c.label)
            labels = {antecedent.question: a_label}
            if outcome != "open":
                labels[c.question] = held if outcome == "held" else broken
            for question in QUESTION_ORDER:
                truth.append((clip_id, question, ANSWER_SPACES[question][0]))
            predictions += [(clip_id, q, label) for q, label in labels.items()]
    text = report.build_evaluation_report(
        AnswerTable.from_rows(truth), AnswerTable.from_rows(predictions, predicted=True),
        "truth.jsonl")
    assert text == dict_report(text, truth, predictions)
    per_clip = json.loads(text)["per_clip_consistency"]
    for rule in consistency.RULES_V1:
        assert any(rule.rule_id in c["triggered"] and rule.rule_id not in c["violated"]
                   for c in per_clip)
        assert any(rule.rule_id in c["violated"] for c in per_clip)


# --------------------------------------------------------- collector state


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "synth.json"
    io.write_json(path, {"count": 2, "out": str(tmp_path / "out")})
    return path


def _freeze_seen(runner):
    """``runner`` in place of ``synth``, recording the freeze count it runs under."""
    seen = []

    def run(cfg):
        seen.append(gc.get_freeze_count())
        return runner(cfg)

    return seen, mock.patch.dict(cli._RUNNERS, {"synth": run})


def _fail(cfg):
    raise ConfigError("bad input")


def _raise(cfg):
    raise RuntimeError("boom")


@pytest.mark.parametrize("outcome", ["exit 0", "exit 2", "raises"])
def test_main_freezes_the_heap_for_the_command_only(config, outcome):
    runner = {"exit 0": cli._cmd_synth, "exit 2": _fail, "raises": _raise}[outcome]
    seen, patch = _freeze_seen(runner)
    assert gc.get_freeze_count() == 0
    with patch:
        if outcome == "raises":
            with pytest.raises(RuntimeError):
                cli.main(["synth", "--config", str(config)])
        else:
            assert cli.main(["synth", "--config", str(config)]) == int(outcome[-1])
    assert seen and seen[0] > 0
    assert gc.get_freeze_count() == 0


def test_main_leaves_a_callers_freeze_in_place(config):
    seen, patch = _freeze_seen(cli._cmd_synth)
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        with patch:
            assert cli.main(["synth", "--config", str(config)]) == 0
        # frozen objects can die, but none are added and none thawed
        assert 0 < gc.get_freeze_count() <= seen[0] <= frozen
    finally:
        gc.unfreeze()


def test_main_unfreezes_when_the_arguments_do_not_parse(capsys):
    with pytest.raises(SystemExit):
        cli.main(["synth", "--no-such-option"])
    assert gc.get_freeze_count() == 0


class _Cycle:
    def __init__(self):
        self.cycle = self


def test_main_freezes_no_garbage(config):
    """Young garbage left before the command, and the parser, which holds
    reference cycles in later Python releases, are ordinary objects that a
    collection during the command frees: a loop of commands does not keep
    the garbage of the earlier ones."""
    garbage = _Cycle()
    refs, alive = [weakref.ref(garbage)], []
    del garbage
    build = cli.build_parser

    def recorded():
        parser = build()
        parser.cycle = parser
        refs.append(weakref.ref(parser))
        return parser

    def run(cfg):
        gc.collect()
        alive.extend(ref() is not None for ref in refs)
        return cli._cmd_synth(cfg)

    with mock.patch.object(cli, "build_parser", recorded), \
            mock.patch.dict(cli._RUNNERS, {"synth": run}):
        assert cli.main(["synth", "--config", str(config)]) == 0
    assert alive == [False, False]
