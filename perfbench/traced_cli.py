"""Run one surfhom CLI command with tracing on.

    python3 perfbench/traced_cli.py <surfhom arguments...>

The command's own output goes to stdout unchanged; the aggregated spans
follow on stderr as a last line ``PERFBENCH_TRACE <json>``.
"""

import importlib
import json
import sys

import tracer
import workloads

if __name__ == "__main__":
    sys.path.insert(0, str(workloads.SRC))
    importlib.import_module("surfhom.cli")
    tr = tracer.Tracer()
    tr.install()
    try:
        code = sys.modules["surfhom.cli"].main(sys.argv[1:])
    finally:
        tr.uninstall()
    sys.stdout.flush()
    sys.stderr.write("PERFBENCH_TRACE " + json.dumps(tr.dump()) + "\n")
    sys.exit(code)
