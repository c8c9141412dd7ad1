"""Paired benchmark runs of a parent revision against a change, as one JSON file.

    python3 tools/bench_pairs.py --parent REV --name NAME --workdir DIR

Copies two checkouts into a scratch directory: the parent with ``git
archive REV``, the change as the files git would commit from this working
tree (tracked and untracked, less what ``.gitignore`` excludes).  Then, for
each workload of ``BENCHMARK.json``, it runs ``perfbench/run.py`` in the two
checkouts in alternating order, ``PAIRS`` pairs of one seed each, every
run as long as ``BENCHMARK.json``'s ``run_seconds``, and writes
``BENCH_<NAME>.json`` at the root of the repository: per end-to-end metric,
each side's runs with their median and quartiles, the change in the median,
the number of pairs the change won, and whether the median moved in the
better direction by more than the parent's interquartile range.  It adds a
table of stages (unroll, keygen, signer setup, sync pair, sign, verify, the
bias of a fresh theta, a rejected verify and hash_to_field) at the ROADMAP's
four parameter sets, timed in a child interpreter per checkout, again
alternating, in milliseconds and in runs of perfbench's calibration kernel.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = {"PYTHONDONTWRITEBYTECODE": "1"}
ORDER = "pair k runs parent first when k is even, change first when k is odd"
QUARTILES = "statistics.quantiles(method='inclusive')"

# (p, n) at rho=10: the parameter sets of the ROADMAP's performance aim.
LAYER_SETS = ((257, 26), (257, 43), (2**61 - 1, 26), (257, 128))
LAYER_RHO = 10
LAYER_REPEATS = 9
FIRST_SEED = 901
PAIRS = 10

# Runs in a child interpreter with a checkout's src/ first on sys.path; prints
# {"p=..,n=..": {"stages": {stage: [seconds, ...]}, "calibration": [seconds, ...]}}.
# Each repeat builds a fresh key and a fresh SyncConfig, so no squaring table
# or memo carries over from one repeat to the next.  Repeat 0 of each set is an
# untimed warm-up: the first pass through the set-up path runs slower than the
# rest, and kept among the samples it widened the quartiles.  Within a repeat,
# one untimed sign and verify fill the keys' memos, then sign and verify are
# timed per message over MESSAGES messages under one theta, and theta_switch
# is the bias of a fresh theta (PublicKey.theta_bias), per theta over MESSAGES
# thetas.  verify_reject, timed before theta_switch moves the memo, verifies
# the same signatures on their messages with one byte flipped: the early exit
# after h0 that every fourth sign-verify message of perfbench takes.
# hash_to_field digests the 1 KiB messages.  Both call functions every
# checkout has.  Calibration is the median time of perfbench's
# calibration kernel, run CAL_RUNS times before and after a repeat's stages.
LAYER_CHILD = r"""
import json, os, random, statistics, sys, time
if hasattr(os, "sched_setaffinity"):  # one CPU, as perfbench/run.py does
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, os.path.join(os.path.dirname(sys.argv[1]), "perfbench"))
import nnsig
from nnsig.network import build_network, unroll
from nnsig.scheme import hash_to_field
from harness import calibration_kernel
sets, rho, repeats = json.loads(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
MESSAGES, CAL_RUNS = 16, 3
clock = time.perf_counter

def calibrate():
    times = []
    for _ in range(CAL_RUNS):
        t0 = clock(); calibration_kernel(); times.append(clock() - t0)
    return times

def per_call(fn, args):
    t0 = clock()
    for a in args:
        fn(*a)
    return (clock() - t0) / len(args)

out = {}
for p, n in sets:
    field = nnsig.Field(p)
    stages = ("unroll", "keygen", "signer_setup", "sync_pair", "sign", "verify", "theta_switch",
              "verify_reject", "hash_to_field")
    times = {stage: [] for stage in stages}
    calibration = []
    for k in range(repeats + 1):
        cal = calibrate()
        config = nnsig.NetworkConfig(n=n, field=field, rho=rho, seed=b"layers %d" % k)
        weights, schedule = build_network(config)
        t0 = clock(); unroll(weights, schedule); t1 = clock()
        pk, sk = nnsig.keygen(config, random.Random(k)); t2 = clock()
        sk.signing_matrix(); t3 = clock()
        rng = random.Random(k)
        sync = nnsig.SyncConfig(weights=sk.weights, q=field.sample_vector(rng, n))
        t4 = clock()
        nnsig.run_pair(nnsig.SyncSession.create(sync, random.Random(2 * k)),
                       nnsig.SyncSession.create(sync, random.Random(2 * k + 1)))
        t5 = clock()
        theta = field.sample_vector(rng, n)
        nnsig.verify(pk, theta, b"", nnsig.sign(sk, theta, b"", rng))
        messages = [rng.randbytes(1024) for _ in range(MESSAGES)]
        sign_s = per_call(nnsig.sign, [(sk, theta, m, rng) for m in messages])
        signed = [(pk, theta, m, nnsig.sign(sk, theta, m, rng)) for m in messages]
        verify_s = per_call(nnsig.verify, signed)
        reject_s = per_call(nnsig.verify, [(pk, theta, bytes([m[0] ^ 1]) + m[1:], sig)
                                           for pk, theta, m, sig in signed])
        fresh = [(pk, field.sample_vector(rng, n)) for _ in range(MESSAGES)]
        switch_s = per_call(nnsig.PublicKey.theta_bias, fresh)
        digest_s = per_call(hash_to_field, [(m, n, field) for m in messages])
        cal += calibrate()
        if k:
            for stage, seconds in zip(stages, (t1 - t0, t2 - t1, t3 - t2, t5 - t4,
                                               sign_s, verify_s, switch_s, reject_s, digest_s)):
                times[stage].append(seconds)
            calibration.append(statistics.median(cal))
    out[f"p={p},n={n}"] = {"stages": times, "calibration": calibration}
print(json.dumps(out))
"""


def git(*args, cwd=ROOT, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, **kwargs)


def change_src_tree() -> str:
    """The git tree id of this working tree's ``src`` as it would be committed,
    staged in a throwaway index so the real one is left alone."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        tree = git("write-tree", env=env, text=True).stdout.strip()
    return git("rev-parse", f"{tree}:src", text=True).stdout.strip()


def checkout_parent(rev: str, dest: Path) -> str:
    """Extract rev into dest; returns its full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}", text=True).stdout.strip()
    archive = dest.with_suffix(".tar")
    git("archive", "--format=tar", "-o", str(archive), commit)
    with tarfile.open(archive) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    archive.unlink()
    return commit


def checkout_change(dest: Path) -> None:
    """Copy the files of this working tree that git would commit into dest."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").stdout
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        source = ROOT / name
        if source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_env() -> dict:
    env = dict(os.environ, **ENV)
    env.pop("PYTHONPATH", None)
    return env


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, env=run_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout.name} {workload} seed {seed}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_layers(checkout: Path) -> dict:
    argv = [sys.executable, "-c", LAYER_CHILD, str(checkout / "src"),
            json.dumps(LAYER_SETS), str(LAYER_RHO), str(LAYER_REPEATS)]
    proc = subprocess.run(argv, env=run_env(), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def spread(runs) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def compare(parent, change, lower_is_better: bool) -> dict:
    """Each side's spread, and how the change's median stands against the parent's."""
    before, after = spread(parent), spread(change)
    gain = before["median"] - after["median"] if lower_is_better else after["median"] - before["median"]
    wins = sum((c < p) if lower_is_better else (c > p) for p, c in zip(parent, change))
    return {
        "parent": before,
        "change": after,
        "median_change_pct": 100 * (after["median"] / before["median"] - 1),
        "change_wins": wins,
        "median_gap_exceeds_parent_iqr": gain > before["q3"] - before["q1"],
    }


def alternate(k: int, parent, change) -> list:
    return [("parent", parent), ("change", change)][:: 1 if k % 2 == 0 else -1]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    parser.add_argument("--workdir", type=Path, required=True,
                        help="scratch directory outside the repository; its parent/ and "
                             "change/ subdirectories are replaced")
    args = parser.parse_args(argv)
    if args.workdir.resolve().is_relative_to(ROOT):
        parser.error("--workdir must lie outside the repository")

    parent_dir, change_dir = args.workdir / "parent", args.workdir / "change"
    shutil.rmtree(parent_dir, ignore_errors=True)
    shutil.rmtree(change_dir, ignore_errors=True)
    parent_dir.mkdir(parents=True)
    change_dir.mkdir(parents=True)
    parent_commit = checkout_parent(args.parent, parent_dir)
    checkout_change(change_dir)
    change_tree = change_src_tree()
    dirs = {"parent": parent_dir, "change": change_dir}
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}

    workloads = {}
    seconds = spec["run_seconds"]
    seeds = list(range(FIRST_SEED, FIRST_SEED + PAIRS))
    for workload in (w["name"] for w in spec["workloads"]):
        results = {"parent": [], "change": []}
        for k, seed in enumerate(seeds):
            for side, checkout in alternate(k, *dirs.values()):
                results[side].append(run_bench(checkout, workload, seed, seconds))
                print(f"{workload} pair {k} {side} done", file=sys.stderr, flush=True)
        metrics = {}
        for name, m in end_to_end.items():
            values = {side: [r["metrics"][name]["value"] for r in runs] for side, runs in results.items()}
            metrics[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                             **compare(values["parent"], values["change"], m["better"] == "lower")}
        workloads[workload] = {
            "seeds": seeds,
            "pairs": PAIRS,
            "attempted": {side: [r["attempted"] for r in runs] for side, runs in results.items()},
            "failed": {side: sum(r["failed"] for r in runs) for side, runs in results.items()},
            "correct": all(r["correct"] for runs in results.values() for r in runs),
            "metrics": metrics,
        }

    record = {
        "what": "End-to-end perfbench metrics of the parent commit and of this change, in "
                "alternating pairs on one host; and the set-up and per-message stages at the "
                "four ROADMAP parameter sets.",
        "benchmark": {
            "command": f"python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds {seconds:g}",
            "environment": ENV,
            "order": ORDER,
            "quartiles": QUARTILES,
            "median_gap_exceeds_parent_iqr": "the change's median is better than the parent's "
                                             "by more than the parent's q3 - q1",
        },
        "parent": {"commit": parent_commit,
                   "src_tree": git("rev-parse", f"{parent_commit}:src", text=True).stdout.strip()},
        "change": {"commit": "the commit that adds this file", "src_tree": change_tree},
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "workloads": workloads,
        "layers": layer_table(dirs),
    }
    out = ROOT / f"BENCH_{args.name}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


def layer_table(dirs: dict) -> dict:
    """Median, quartiles and change of each stage, in milliseconds and in runs
    of perfbench's calibration kernel timed next to it."""
    samples = {"parent": {}, "change": {}}
    for k in range(PAIRS):
        for side, checkout in alternate(k, *dirs.values()):
            for key, result in run_layers(checkout).items():
                for stage, seconds in result["stages"].items():
                    cell = samples[side].setdefault(key, {}).setdefault(stage, {"ms": [], "cal": []})
                    cell["ms"].extend(1e3 * s for s in seconds)
                    cell["cal"].extend(map(operator.truediv, seconds, result["calibration"]))
            print(f"layers pair {k} {side} done", file=sys.stderr, flush=True)
    rows = {}
    for key, stages in samples["parent"].items():
        rows[key] = {}
        for stage, before in stages.items():
            rows[key][stage] = {}
            for unit in ("ms", "cal"):
                cell = compare(before[unit], samples["change"][key][stage][unit], True)
                for side in ("parent", "change"):
                    cell[side] = {k: v for k, v in cell[side].items() if k != "runs"}
                del cell["change_wins"]  # repeats within a pair are not paired samples
                rows[key][stage][unit] = cell
    return {
        "what": f"time of each stage, rho={LAYER_RHO}, {PAIRS} alternating pairs of one child "
                f"interpreter per checkout, {LAYER_REPEATS} timed repeats per set after one "
                "untimed warm-up repeat; every repeat builds a fresh key and SyncConfig (sync "
                "pair: two SyncSession.create and run_pair, so the squares of W are paid in "
                "it). sign and verify: per message, 16 messages of 1 KiB under one theta, "
                "after one untimed sign and verify; theta_switch: the bias of a fresh theta "
                "on the public key, per theta over 16 thetas; verify_reject: verify of the same "
                "signatures on their messages with one byte flipped (rejected after h0); "
                "hash_to_field: the digest of each 1 KiB message",
        "units": {"ms": "milliseconds",
                  "cal": "runs of perfbench's calibration kernel (harness.calibration_kernel), "
                         "the median of 6 runs around the same repeat"},
        "stages": rows,
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


if __name__ == "__main__":
    sys.exit(main())
