"""Run the cspdclink CLI with layer spans recorded.

usage: python bench/launch.py SPANS_JSON <cspdclink arguments...>

Installs the wrappers of ``tracing.Tracer`` on the CLI's bindings, calls
``cli.main`` and writes the spans to SPANS_JSON when it returns.  The
``cli_design`` workload starts this in place of ``python -m cspdclink.cli``
for its traced operations.
"""

import json
import sys
from pathlib import Path

from tracing import Tracer

from cspdclink import cli


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer.patched():
            return cli.main(argv)
    finally:
        Path(spans_path).write_text(json.dumps(tracer.spans), encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main())
