"""Run the metricat CLI with per-layer tracing and save the trace table.

    python3 perfbench/tracecli.py TRACE_OUT COMMAND [ARGS...]

behaves like ``python3 -m metricat.cli COMMAND [ARGS...]`` (same output and
exit code) and writes the wrappers' statistics to TRACE_OUT as JSON.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from metricat import cli  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    trace_out, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    tracer.enabled = True
    code = 0
    try:
        cli.main(args=args, prog_name="metricat")
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.enabled = False
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
