"""The paired-benchmark tool's layer and CLI tables, run against this tree.

CI only imports ``tools/bench_pairs.py``; the tables that time the set-up
and per-message stages and the CLI commands run only inside a benchmark, so
an API change could break them unseen.  Each test runs its table in a child
interpreter through the tool's own bootstrap (``run_child``), as a benchmark
does.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_child_times_the_four_set_up_stages():
    result = _bench_pairs().run_child(ROOT, "layer_child", 2, [[257, 8]],
                                      timeout=120)["p=257,n=8"]
    stages = result["stages"]
    assert list(stages) == ["unroll", "keygen", "signer_setup", "sync_pair",
                            "sign", "verify", "verify_reject", "theta_switch",
                            "hash_to_field", "mat_mul", "det", "mat_pow", "pk_codec",
                            "sig_codec"]
    for times in (*stages.values(), result["calibration"]):
        assert len(times) == 2 and all(t > 0 for t in times)


def test_cli_child_times_every_row():
    result = _bench_pairs().run_child(ROOT, "cli_child", 1, [[]], timeout=300)["p=257,n=26"]
    stages = result["stages"]
    assert list(stages) == ["bare", "import", "help", "keygen", "sync_pair", "sign", "verify",
                            "params", "attack"]
    for times in (*stages.values(), result["calibration"]):
        assert len(times) == 1 and times[0] > 0
