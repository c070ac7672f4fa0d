#!/usr/bin/env python3
"""Record reference.json: the answers of the unrotated template queries.

    python3 perfbench/record_reference.py

Run from the root of a source checkout.  The benchmark compares each rotated
query with these answers, so re-record only when an answer is meant to change,
and say why in the change that does it.
"""

import json
import os
import shutil
import sys

import run

import numpy as np  # noqa: E402  (after run pinned the BLAS threads)


def main():
    sg = run.import_library()
    import workloads

    reference = {}
    workdir = os.path.join(run.HERE, "out", f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        run.warm_up(sg, np)
        for workload in workloads.WORKLOADS:
            for q in workloads.build(workload, 0, workdir, 1, rotate=False)[0]:
                if not q.referenced:
                    continue
                answer = q.run()
                reference[q.key] = q.summarize(answer)
                print(q.key, reference[q.key], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
