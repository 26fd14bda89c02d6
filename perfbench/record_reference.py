"""Rewrite reference.json from one pass of every workload at DEFAULT_SEED.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are trusted (the references in the
repository were recorded from the package as first imported); the benchmark
then holds every later commit to these values at round-off tolerances.
"""

from __future__ import annotations

import json
import sys

from run import OUT_DIR, _import_package


def main() -> int:
    _import_package()
    import workloads

    reference = {}
    for name in workloads.WORKLOADS:
        rec = workloads.run_pass(workloads.make_inputs(name, workloads.DEFAULT_SEED, OUT_DIR))
        failures = {op: p for op, p in rec.problems.items() if p}
        if failures:
            print(f"{name}: invariant failures, nothing written: {failures}", file=sys.stderr)
            return 1
        reference[name] = rec.values
        print(f"{name}: {len(rec.values)} operations recorded")
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
