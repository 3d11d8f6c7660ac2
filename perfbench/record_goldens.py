"""Record the golden output digests of the default seed.

    python3 perfbench/record_goldens.py

Runs one pass of every workload with seed 0 and writes, for each input,
its exit code and the SHA-256 of its stdout to goldens.json.  Refuses to
record when a report fails its checks.  The committed file was recorded
from the seed commit of the package; re-record only when a change is
meant to alter the printed reports.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    cli = run.import_package()
    goldens = {}
    for workload in run.WORKLOADS:
        argvs = workloads.build(workload, 0)
        result = run.run_pass(cli, argvs, {})
        if result["failures"]:
            print("\n".join(result["failures"]), file=sys.stderr)
            return 1
        for argv, (code, digest) in zip(argvs, result["outputs"]):
            goldens[" ".join(argv)] = [code, digest]
    run.GOLDENS.write_text(json.dumps(goldens, indent=0, sort_keys=True)
                           + "\n")
    print("%d goldens written to %s" % (len(goldens), run.GOLDENS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
