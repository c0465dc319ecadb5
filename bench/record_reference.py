"""Record the reference results for the default seed into reference.json.

    python3 bench/record_reference.py

compare keeps each op's per-IC [mean benchmark gamma, mean switching gamma]
for its first three passes (three repeats of each reference IC);
simulate_full keeps the
telemetry.csv SHA-256 of each run of its first pass.  Later runs with the
default seed fail any op whose output departs from these: gammas by more
than 1e-12 relative, telemetry by a single byte.  Re-record only when a
change is meant to alter the numbers, and say so.
"""

import json
import sys
import tempfile
from pathlib import Path

from measure import run_pass
from workloads import DEFAULT_SEED, REFERENCE_FILE, ROOT, Compare, SimulateFull

PASSES = {Compare: 3, SimulateFull: 1}


def main() -> int:
    reference = {"seed": DEFAULT_SEED}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as tmp:
        for cls, passes in PASSES.items():
            workload = cls(DEFAULT_SEED, Path(tmp))
            reference[cls.name] = []
            for k in range(passes):
                res = run_pass(workload.pass_ops(k))
                if res.failed:
                    print(*res.errors, file=sys.stderr)
                    return 1
                reference[cls.name].append(res.observed)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
