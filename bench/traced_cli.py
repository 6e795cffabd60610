"""``cotv`` CLI run under the span tracer, for the traced cold-CLI workload.

Usage: ``python bench/traced_cli.py SUMMARY.json value --config FILE``.
Runs ``cotv.cli.main`` on the remaining arguments exactly as
``python -m cotv.cli`` would, then writes the run's per-layer metrics and
spans to SUMMARY.json.
"""

from __future__ import annotations

import json
import sys

import spans


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    import cotv.cli

    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    index = tracer.open(spans.OP)
    try:
        status = cotv.cli.main(argv)
    finally:
        tracer.close(index)
        uninstall()
    recorded, counts = tracer.drain()
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump({"metrics": spans.layer_metrics(recorded, counts),
                   "spans": recorded}, handle)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
