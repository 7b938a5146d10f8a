"""Record the golden digests the benchmark checks outputs against.

Runs every job any seed can draw, once, and writes ``golden.json``
beside this file.  Run it from the root of a checkout only at a commit
whose outputs are trusted; a later change that alters a digest is a
behaviour change to explain, not a file to re-record.

    python3 bench/golden.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    root = os.getcwd()
    run._load_package(root)
    import workloads

    golden, bad = {}, 0
    workdir = run._workdir(root)
    try:
        for workload in workloads.WORKLOADS:
            jobs = workloads.build_jobs(workload, workloads.every_spec(workload), workdir)
            golden[workload] = {}
            for job in jobs:
                payload, fails = job.check(job.run())
                if fails:
                    bad += 1
                    print(f"{job.spec.key}: {'; '.join(fails)}", file=sys.stderr)
                golden[workload][job.spec.key] = workloads.digest(payload)
            print(f"{workload}: {len(jobs)} digests")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if bad:
        print(f"{bad} job(s) failed their oracles; nothing written", file=sys.stderr)
        return 1
    with open(os.path.join(run.BENCH_DIR, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
