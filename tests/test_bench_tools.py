"""The paired-benchmark tool's layer child, run against this tree's ``src``.

CI only imports ``tools/bench_pairs.py``; the child that times the set-up
and per-message stages runs only inside a benchmark, so an API change could break it unseen.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_child_times_the_four_set_up_stages():
    argv = [sys.executable, "-c", _bench_pairs().LAYER_CHILD, str(ROOT / "src"),
            json.dumps([[257, 8]]), "2", "2"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["p=257,n=8"]
    stages = result["stages"]
    assert list(stages) == ["unroll", "keygen", "signer_setup", "sync_pair",
                            "sign", "verify", "theta_switch", "verify_reject",
                            "hash_to_field"]
    for times in (*stages.values(), result["calibration"]):
        assert len(times) == 2 and all(t > 0 for t in times)
