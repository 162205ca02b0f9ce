"""Write digests.json: the SHA-256 of the stdout of every CLI call the
workloads can make, as the current code prints it.

    python3 perfbench/record_digests.py

Run it only when an output change is intended; the benchmark counts any
other change of output bytes as a failed operation.  Outputs that fail
an oracle are not recorded.
"""

import json
import os
import sys

from run import EXPAND_ORDERS, HERE, Runner, expand_calls, table_calls, verify_calls


def main():
    workloads = {
        "table": [table_calls()],
        "expand": [expand_calls(order) for order in EXPAND_ORDERS],
        "verify": [verify_calls()],
    }
    digests = {}
    for workload, operations in workloads.items():
        digests[workload] = {}
        for calls in operations:
            report, error = Runner(workload, {}).spawn(
                {"workload": workload, "calls": calls})
            if report is None:
                sys.exit(f"{workload}: {error}")
            for call in report["calls"]:
                if call["problems"]:
                    sys.exit(f"{call['key']}: {'; '.join(call['problems'])}")
                digests[workload][call["key"]] = call["digest"]
    with open(os.path.join(HERE, "digests.json"), "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
