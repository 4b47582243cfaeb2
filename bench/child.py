"""Run one egodyn CLI command in this fresh process and report its cost.

Usage: ``python3 child.py SPAWNED RESULT [--trace SPANS] -- CLI_ARGS...``

``SPAWNED`` is the parent's ``time.monotonic()`` just before it started
this process (the clock is shared between processes), so the reported
import time includes interpreter start-up. The result is written as JSON
to ``RESULT``; with ``--trace`` the command runs under ``tracing.Tracer``
and its spans go to ``SPANS``. The exit status is the command's.

``reference.work()`` is timed just before and just after the command
(see ``reference.py``), so the parent can scale the import and command
times to the host's speed at that moment. Peak memory is read before the second
reference run.
"""

import sys
import time

import egodyn.cli

IMPORTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402

import reference  # noqa: E402


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    spawned, result_path = float(own[0]), own[1]
    spans_path = own[own.index("--trace") + 1] if "--trace" in own else None
    result = {"import_s": IMPORTED - spawned, "module": egodyn.cli.__file__}
    tracer = None
    if spans_path:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    result["reference_before_s"] = reference.timed()
    start = time.perf_counter()
    status = egodyn.cli.main(cli_args)
    result["main_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["reference_after_s"] = reference.timed()
    if tracer is not None:
        result["spans"] = tracer.table()
        result["counts"] = tracer.counts
        tracer.write_spans(spans_path)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
