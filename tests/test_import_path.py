"""Importing the CLI loads no scipy subpackage beyond ``scipy.ndimage``.

Every command pays its imports before it starts, so a subpackage pulled in
for one function (``scipy.signal`` brings ``scipy.stats`` with it) costs
each run about a second.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import egodyn

SRC = str(Path(egodyn.__file__).resolve().parents[1])


def test_cli_import_loads_neither_signal_nor_stats():
    code = "import json, sys, egodyn.cli; print(json.dumps(sorted(sys.modules)))"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    modules = set(json.loads(result.stdout))
    assert "egodyn.cli" in modules
    assert "scipy.ndimage" in modules
    for banned in ("scipy.signal", "scipy.stats"):
        assert banned not in modules
        assert not any(m.startswith(banned + ".") for m in modules)
