"""Write references.json: the outputs every run is checked against.

    python3 perfbench/record_references.py

Run it from the root of the checkout at the commit whose outputs are the
reference; it uses the library's own entry points (run_campaign and the
CLI) on seed 0.
"""

import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as in run.py

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    refs = workloads.record_references()
    (BENCH / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
