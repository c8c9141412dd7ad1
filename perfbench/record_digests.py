"""Rewrite digests.json, the fixed-seed outputs the output-identity guard expects.

Run it only for a change that is meant to alter nnsig's outputs, and say so
in that change:

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json

from run import import_nnsig

import_nnsig()

import harness  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    checks = harness.Samples()
    library = {}
    for params in (harness.SV_PARAMS, harness.CLI_PARAMS):
        digests, counts = harness.pipeline(params, harness.GUARD_SEED)
        checks.check(counts["thetas_equal"] and counts["accepted"], harness.params_key(params))
        library[harness.params_key(params)] = digests
    cli = workloads.CliSession(in_process=False).guard_artifacts(checks)
    if checks.failed:
        raise SystemExit("the fixed-seed run failed its own checks; digests not written")
    harness.DIGESTS_FILE.write_text(json.dumps({"library": library, "cli": cli}, indent=2) + "\n")
    print(f"wrote {harness.DIGESTS_FILE}")


if __name__ == "__main__":
    main()
