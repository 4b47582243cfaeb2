"""Fuzz the proxies reader through the ``baseline`` command.

Files mix valid flow and odometry rows with missing fields, strings
(numeric ones too), booleans, integers too large for a float, values of
+/-1e308 (alone, or in every row of a clip so that a mean or a sum
overflows), negative magnitudes, array ids and schemas of the wrong kind. ``baseline`` must either exit 0
with every evidence value finite or exit 2 with an ``egodyn baseline:``
message; it must never raise.
"""

from __future__ import annotations

import contextlib
import math
from io import StringIO

from hypothesis import given, settings
from hypothesis import strategies as st

from egodyn import io
from egodyn.cli import main

FIELDS = {
    "flow": ("s_turn", "s_exp", "m_mag"),
    "odom": ("m_disp", "theta_deg"),
    "rate": ("v", "omega"),  # neither proxy schema
}
MAGNITUDES = ("m_mag", "m_disp")
BAD = [None, "left", "5.5", True, 10**400, -(10**400), 1e308, -1e308, -1.0, [1.0]]  # None: field absent


@st.composite
def proxy_rows(draw):
    rows = []
    for c in range(draw(st.integers(0, 4))):
        family = draw(st.sampled_from(["flow", "flow", "odom", "odom", "rate"]))
        clip_id = draw(st.sampled_from([f"c{c}", f"c{c}", c, [f"c{c}"]]))
        clip = [{"clip_id": clip_id, "t": float(i)} for i in range(draw(st.integers(1, 5)))]
        for row in clip:
            for name in FIELDS[family]:
                value = draw(st.floats(-3.0, 3.0))
                row[name] = abs(value) if name in MAGNITUDES else value
        if draw(st.booleans()):  # spoil one field, in one row or in all of them
            name = draw(st.sampled_from(("t",) + FIELDS[family]))
            value = draw(st.sampled_from(BAD))
            spoiled = clip if draw(st.booleans()) else [draw(st.sampled_from(clip))]
            for row in spoiled:
                if value is None:
                    del row[name]
                else:
                    row[name] = value
        rows.extend(clip)
    return rows


@settings(max_examples=150, deadline=None)
@given(rows=proxy_rows(), kind=st.sampled_from(["flow", "vo", "vo_learned"]))
def test_baseline_exits_0_with_finite_evidence_or_2(tmp_path_factory, rows, kind):
    where = tmp_path_factory.mktemp("fuzz")
    io.write_jsonl(where / "proxies.jsonl", rows)
    io.write_json(where / "config.json", {"proxies": str(where / "proxies.jsonl"), "kind": kind,
                                          "out": str(where / "out")})
    err = StringIO()
    with contextlib.redirect_stderr(err):
        status = main(["baseline", "--config", str(where / "config.json")])
    if status == 0:
        labels = io.read_jsonl(where / "out" / "baseline_labels.jsonl")
        assert all(math.isfinite(v) for row in labels for v in row["evidence"].values())
    else:
        assert status == 2
        assert err.getvalue().startswith("egodyn baseline: "), err.getvalue()
