"""Write ``references.json``: the reference digest of every benchmark case.

Digests are recorded for the tuning seed and for a held-out seed that no
benchmark change was tuned on, so a later performance claim can be checked
on it.  Each case is run plainly and under the sanitizer; the two digests
must agree before either is recorded.  Run from the repository root after
an intended change of simulated behaviour::

    python3 perfbench/record_references.py
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = {"0": "tuning seed", "1": "held-out seed"}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from repro.analysis.export import result_to_dict
    from repro.runner.digest import digest_of
    from workloads import WORKLOADS

    digests = {}
    for workload, make in WORKLOADS.items():
        digests[workload] = {}
        for seed in SEEDS:
            cases = make(int(seed))
            tally = run.Tally()
            sanitized, violations, _stats = run.conservation_pass(
                cases, tally, result_to_dict, digest_of)
            run.repetition(cases, sanitized, tally, result_to_dict,
                           digest_of)
            if tally.failed or violations:
                for line in tally.errors + violations:
                    print(f"FAIL {workload} seed {seed}: {line}",
                          file=sys.stderr)
                return 1
            digests[workload][seed] = sanitized
            print(f"{workload} seed {seed}: {len(sanitized)} cases")
    with open(run.REFERENCES, "w") as fh:
        json.dump({"seeds": SEEDS, "digests": digests}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
