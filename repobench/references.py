"""Reference digests for the benchmark's sweep jobs.

    python3 repobench/references.py

Runs every job of ``spec.toml`` — at its own 40k records for
sweep-local and at ``sweeps.SHARDED_RECORDS`` for sweep-sharded —
through ``JobSpec.run`` in a fresh process and writes the SHA-256 of
each result's snapshot to ``references.json``.  The sweep workloads
compare every result they produce against these digests, so a run
checks all of its jobs without re-running them.  Regenerate only when
the simulator's results change on purpose (the goldens change with
them).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from common import BENCH_DIR, check_tree

REFERENCES = BENCH_DIR / "references.json"


def main() -> int:
    check_tree()
    import sweeps
    from repro.spec import expand

    out = {}
    with tempfile.TemporaryDirectory() as traces:
        os.environ["REPRO_TRACE_CACHE"] = traces
        for spec in (sweeps.load_spec(), sweeps.sharded_spec()):
            plan = expand(spec)
            for meta, job in zip(plan.meta, plan.jobs):
                out[sweeps.job_id(meta)] = sweeps.digest(job.run().snapshot())
    REFERENCES.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(out)} reference digests written to {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
