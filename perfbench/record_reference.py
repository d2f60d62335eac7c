"""Record the reference verdicts that every benchmark run is checked against.

    python3 perfbench/record_reference.py

Run from the root of a checkout.  This writes ``perfbench/reference.json``
from the library as it is now, so run it only when the workloads change, on
code whose verdicts are known to be right.  For ``corpus`` it records every
instance's verdict vector or skip for each of the reference corpus seeds.
For the document workloads it records one verdict vector per role, after
checking that it is the same for several seeds and for the small inputs
the self-test uses.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

DOCUMENT_SEEDS = range(8)


def codes(workload: str, seed: int, small: bool = False) -> dict:
    cases = workloads.make_setup(workload, seed, small)()
    return {case.name: workloads.verdict_code(case) for case in cases}


def main() -> int:
    reference = {"claims": list(workloads.CLAIMS), "corpus": {}}
    for seed in range(workloads.CORPUS_REFERENCE_SEEDS):
        reference["corpus"][str(seed)] = workloads.encode_corpus(codes("corpus", seed).values())
        print(f"corpus seed {seed} recorded", file=sys.stderr)
    for workload in ("big_group", "deep_cover"):
        roles = codes(workload, 0)
        for seed in DOCUMENT_SEEDS:
            for small in (False, True):
                got = codes(workload, seed, small)
                if got != roles:
                    raise SystemExit(f"{workload} seed {seed} small={small}: {got} != {roles}")
        reference[workload] = roles
        print(f"{workload} recorded: {roles}", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
