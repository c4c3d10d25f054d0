#!/usr/bin/env python3
"""Write reference.json: the run summary of every workload at the default seed.

    python3 pipebench/make_reference.py

run.py fails any run at the default seed whose summary differs from this
reference. Regenerate it only for a change that is meant to alter pipeline
output, and say so with the old and new values.
"""

from __future__ import annotations

import json
import os
import shutil

import run


def main() -> None:
    gsocc = run.import_package()
    reference = {}
    for name in sorted(run.WORKLOADS):
        work = run.WORK / f"reference-{name}-{os.getpid()}"
        try:
            doc = run.config_doc(name, run.DEFAULT_SEED, work)
            reference[name] = gsocc.run_pipeline(gsocc.PipelineConfig.from_dict(doc))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
