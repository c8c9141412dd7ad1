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
    result = _bench_pairs().run_child(ROOT, "layer_child", [[257, 8]],
                                      timeout=120)["p=257,n=8"]
    stages = result["stages"]
    assert list(stages) == ["unroll", "keygen", "signer_setup", "sync_pair",
                            "sign", "sign_csprng", "verify", "verify_reject", "theta_switch",
                            "hash_to_field", "mat_mul", "det", "mat_pow", "pk_codec",
                            "sig_codec"]
    for seconds in (*stages.values(), result["calibration"]):
        assert seconds > 0


def test_cli_child_times_every_row():
    result = _bench_pairs().run_child(ROOT, "cli_child", [[]], timeout=300)["p=257,n=26"]
    stages = result["stages"]
    assert list(stages) == ["bare", "import", "help", "keygen", "sync_pair", "sign", "verify",
                            "params", "attack"]
    for seconds in (*stages.values(), result["calibration"]):
        assert seconds > 0


def test_stage_rows_report_the_per_pair_ratios():
    bench_pairs = _bench_pairs()
    scale = {"parent": 1.0, "change": 0.5}
    calls = []

    def run(checkout):
        calls.append(checkout)
        # A side's nth call in a pair times n, scaled per side.
        nth = calls.count(checkout) % bench_pairs.REPEATS or bench_pairs.REPEATS
        return {"p=7,n=2": {"stages": {"sign": scale[checkout] * nth}, "calibration": 1.0}}

    rows = bench_pairs.stage_rows({"parent": "parent", "change": "change"}, run, "test")
    assert len(calls) == 2 * bench_pairs.REPEATS * bench_pairs.PAIRS
    ratio = rows["p=7,n=2"]["sign"]["pair_ratio"]
    assert ratio["runs"] == [0.5] * bench_pairs.PAIRS
    assert ratio["median"] == ratio["q1"] == ratio["q3"] == 0.5
    assert ratio["change_wins"] == bench_pairs.PAIRS


def test_stage_rows_take_turns_on_every_repeat():
    """The sides alternate on each call, the first side flipping from repeat
    to repeat, and a pair's ratio is that of the medians over all of each
    side's repeats."""
    bench_pairs = _bench_pairs()
    calls = []

    def run(checkout):
        calls.append(checkout)
        # A side's nth call in a pair times n on the parent, 2n on the change.
        nth = calls.count(checkout) % bench_pairs.REPEATS or bench_pairs.REPEATS
        seconds = nth if checkout == "parent" else 2 * nth
        return {"p=7,n=2": {"stages": {"sign": seconds}, "calibration": 1.0}}

    rows = bench_pairs.stage_rows({"parent": "parent", "change": "change"}, run, "test")
    first_pairs = ["parent", "change", "change", "parent", "parent", "change",
                   "change", "parent", "parent", "change", "change", "parent"]
    assert calls[:12] == first_pairs
    assert len(calls) == 2 * bench_pairs.REPEATS * bench_pairs.PAIRS
    ratio = rows["p=7,n=2"]["sign"]["pair_ratio"]
    assert ratio["runs"] == [2.0] * bench_pairs.PAIRS
