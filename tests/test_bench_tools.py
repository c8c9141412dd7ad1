"""The paired-benchmark tool's layer and CLI children, run against this tree.

CI only imports ``tools/bench_pairs.py``; the children that time the set-up
and per-message stages and the CLI commands run only inside a benchmark, so
an API change could break them unseen.
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
                            "hash_to_field", "mat_mul", "det", "mat_pow", "pk_codec",
                            "sig_codec"]
    for times in (*stages.values(), result["calibration"]):
        assert len(times) == 2 and all(t > 0 for t in times)


def test_cli_child_times_every_row():
    argv = [sys.executable, "-c", _bench_pairs().CLI_CHILD, str(ROOT), "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["p=257,n=26"]
    stages = result["stages"]
    assert list(stages) == ["bare", "import", "help", "keygen", "sync_pair", "sign", "verify",
                            "params", "attack"]
    for times in (*stages.values(), result["calibration"]):
        assert len(times) == 1 and times[0] > 0
