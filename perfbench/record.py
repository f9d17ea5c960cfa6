"""Record the reference digests that perfbench/run.py checks outputs against.

    python3 perfbench/record.py

Run from the repository root, on the commit whose outputs are the reference.
For every data seed it runs the desk-mock and desk-default configs with the
mock scorer, the http config against the stub scorer, and the http config with
the mock scorer.  The http chain's run files and samples.jsonl must be byte-identical
to the mock chain's, since the stub computes the same scores; the script
fails if they are not.  Writes perfbench/reference.json.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import (CHECKED_ARTIFACTS, DATA_SEEDS, REFERENCE, WORKLOADS, artifact_digests,
                 check_checkout, make_config, run_chain, set_up)

# Artifacts that carry no config digest, so mock and http chains must agree.
BACKEND_FREE = tuple(a for a in CHECKED_ARTIFACTS if a.startswith("runs/")) + ("samples.jsonl",)


def record_chain(root: Path, scratch: Path, config: dict, http: bool) -> dict:
    env = set_up(root, scratch, config, http, http)
    try:
        results = run_chain(env, False)
    finally:
        env.close()
    if any(r.returncode for r in results):
        raise SystemExit(f"a stage failed; see {env.workdir.with_suffix('.log')}")
    return artifact_digests(env.workdir)


def main() -> int:
    root = Path.cwd()
    problem = check_checkout(root)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    scratch = root / ".perfbench" / "record"
    shutil.rmtree(scratch, ignore_errors=True)
    mock = [WORKLOADS["desk-mock"], WORKLOADS["desk-default"]]
    http = WORKLOADS["http-cold"]
    reference: dict = {w.reference_key: {} for w in (*mock, http)}
    for dseed in DATA_SEEDS:
        for workload in mock:
            reference[workload.reference_key][str(dseed)] = record_chain(
                root, scratch, make_config(workload, dseed), False)
        via_http = record_chain(root, scratch, make_config(http, dseed), True)
        via_mock = record_chain(root, scratch, make_config(http, dseed, "mock"), False)
        differ = [a for a in BACKEND_FREE if via_http[a] != via_mock[a]]
        if differ:
            raise SystemExit(f"data seed {dseed}: http and mock chains differ in {differ}")
        reference["http"][str(dseed)] = via_http
        print(f"data seed {dseed}: recorded", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
