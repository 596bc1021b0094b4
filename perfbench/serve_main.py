"""Launch ``repro.cli serve`` with the benchmark's instruments installed.

Usage::

    python3 perfbench/serve_main.py REPORT TRACE -- serve --index FILE ...

``TRACE`` is ``1`` to record spans around the serve layers' public
functions (see ``spans.LAYER_TARGETS``) before calling
``repro.cli.main``; ``0`` runs the server untouched.  When the server
returns (it stops cleanly on SIGINT), a JSON report goes to ``REPORT``:
its exit code and, when traced, per-span self times.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str]) -> int:
    report_path, traced = argv[0], argv[1] == "1"
    cli_args = argv[3:] if argv[2] == "--" else argv[2:]
    recorder, absent = None, []
    if traced:
        from spans import Recorder, install

        recorder = Recorder()
        _, absent = install(recorder)
        recorder.watch_gc()
    from repro.cli import main as cli_main

    code = cli_main(cli_args)
    report = {
        "exit": code,
        "spans": recorder.summary() if recorder is not None else None,
        "absent": absent,
    }
    Path(report_path).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
