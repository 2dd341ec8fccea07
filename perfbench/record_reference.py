#!/usr/bin/env python3
"""Record the output references the benchmark checks every op against.

Run from the repository root:

    python3 perfbench/record_reference.py [--workload NAME ...]

For each workload and corpus seed it makes the inputs, runs every input
once and stores the exact output summary in ``perfbench/reference.json``
(the full-size entries of the whole corpus take a few minutes).  Re-record
only when a change means to alter vecmap's outputs, and say so in that
change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from run import THREAD_VARS

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import vecmap
    from workloads import CORPUS_SIZE, REFERENCE_PATH, WORKLOADS

    doc = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    doc["corpus_size"] = CORPUS_SIZE
    doc["kernel_backend"] = vecmap.KERNEL_BACKEND
    for name in args.workload or sorted(WORKLOADS):
        for quick in (True, False):
            entries = {}
            for cseed in range(CORPUS_SIZE):
                with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
                    wl = WORKLOADS[name](cseed, quick, Path(tmp))
                    wl.setup()
                    entries[str(cseed)] = [wl.summary(i, wl.run(i)) for i in range(wl.n_inputs)]
            doc.setdefault("quick" if quick else "full", {})[name] = entries
            print(f"recorded {name} ({'quick' if quick else 'full'})", flush=True)
            REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
