"""Record the reference output digests for the default seed.

    python3 perfbench/record_reference.py

Runs one untimed pass of every workload at ``REFERENCE_SEED``, checks each
output with the oracles, and writes ``perfbench/reference.json``.  Re-record
only when the request generators change, never to absorb a changed output
of the package.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

REFERENCE_SEED = 1


def main() -> int:
    ref = {}
    for workload in workloads.WORKLOADS:
        _, requests = run.setup(workload, REFERENCE_SEED)
        verify = run.Verifier(requests, None)
        _, failed = run.run_pass(requests, verify)
        if failed:
            print("\n".join(verify.errors), file=sys.stderr)
            return 1
        ref[workload] = {"seed": REFERENCE_SEED, "digests": verify.digests}
        print(f"{workload}: {len(requests)} requests")
    run.REFERENCE_FILE.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
