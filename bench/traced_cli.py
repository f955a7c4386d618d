"""Run one CLI command with spans: ``traced_cli.py SPANS_JSON ARG...``.

Used by the traced cli_session run in place of ``python -m k3latt.cli``: it
installs the wrappers from tracer.py, calls ``k3latt.cli.main`` with the
remaining arguments, and writes the aggregated spans to SPANS_JSON for the
workload process to merge.
"""

import json
import sys

import k3latt.cli

from tracer import Tracer, install


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    try:
        return k3latt.cli.main(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
