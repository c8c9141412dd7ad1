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
table of stages (unroll, keygen, signer setup, sync pair, sign, verify,
a rejected verify, the bias of a fresh theta, hash_to_field, and the layers
``mat_mul``, ``det``, ``mat_pow`` and the key and signature codecs) at the
ROADMAP's four parameter sets, timed in a child interpreter per checkout, again
alternating, in milliseconds and in runs of perfbench's calibration kernel;
and a table of CLI children (a bare interpreter, ``import nnsig``, ``nnsig
--help``, keygen, a sync pair, sign, verify, params and attack) at
perfbench's CLI parameter set, timed the same way.  Each stage row also
gives the spread of the per-pair ratios of the change's median to the
parent's.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
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
MESSAGES = 16
CAL_RUNS = 3
CLI_REPEATS = 9

# Run as ``python -c BOOTSTRAP SRC PERFBENCH TOOLS TABLE REPEATS SETS``: the child
# imports nnsig and perfbench from a checkout and this module from this tree's
# tools/, so both checkouts are timed by the same code.
BOOTSTRAP = """import json, sys
sys.path[:0] = sys.argv[1:4]
import bench_pairs
bench_pairs.child(getattr(bench_pairs, sys.argv[4]), int(sys.argv[5]), json.loads(sys.argv[6]))"""


def child(table, repeats: int, sets) -> None:
    """Run ``table(k, *args)`` for each args of sets in this child interpreter
    and print {key: {"stages": {stage: [seconds, ...]}, "calibration": [seconds, ...]}},
    where the table returns (key, {stage: seconds}) for repeat k.

    The child runs on one CPU, through perfbench/run.py's ``pin_to_one_cpu``.
    Repeat 0 of each set is an untimed warm-up: the first pass through the
    set-up path runs slower than the rest, and kept among the samples it
    widened the quartiles.
    Calibration is the median time of perfbench's calibration kernel, run
    CAL_RUNS times before and after a repeat's stages.
    """
    from harness import calibration_kernel
    from run import pin_to_one_cpu

    pin_to_one_cpu()

    def calibrate():
        times = []
        for _ in range(CAL_RUNS):
            t0 = time.perf_counter()
            calibration_kernel()
            times.append(time.perf_counter() - t0)
        return times

    out = {}
    for args in sets:
        for k in range(repeats + 1):
            cal = calibrate()
            key, stages = table(k, *args)
            cal += calibrate()
            if k:
                cell = out.setdefault(key, {"stages": {}, "calibration": []})
                for stage, seconds in stages.items():
                    cell["stages"].setdefault(stage, []).append(seconds)
                cell["calibration"].append(statistics.median(cal))
    print(json.dumps(out))


def per_call(fn, args) -> float:
    """Mean seconds of ``fn(*a)`` over the argument tuples in args."""
    t0 = time.perf_counter()
    for a in args:
        fn(*a)
    return (time.perf_counter() - t0) / len(args)


def layer_child(k: int, p: int, n: int) -> tuple:
    """Repeat k of the layer table at (p, n): ("p=..,n=..", {stage: seconds}).

    Each repeat builds a fresh key and a fresh SyncConfig, so no squaring
    table or memo carries over from one repeat to the next.  One untimed sign
    and verify fill the keys' memos, then sign and verify are timed per
    message over MESSAGES messages under one theta.  verify_reject, timed
    before theta_switch moves the memo, verifies the same signatures on their
    messages with one byte flipped: the early exit after h0 that every fourth
    sign-verify message of perfbench takes.  theta_switch is the bias of a
    fresh theta (PublicKey.theta_bias, which also packs verify's addend where
    the public key packs it on a miss), per theta over MESSAGES thetas.
    hash_to_field digests the 1 KiB messages.  The layer rows run once on the
    repeat's key: mat_mul is Wbar_x @ Wbar_theta, det is det(Wbar_x), mat_pow
    is Wbar_x^(p-2), the largest exponent keygen can draw, so every repeat at
    a set runs the same products; pk_codec and sig_codec serialize and parse
    the public key and (per signature) the MESSAGES signatures; signer_setup
    is mat_inv(Wbar_x).  All call functions every checkout has.
    """
    import nnsig
    from nnsig.matrix import det, mat_mul, mat_pow

    def pk_codec(pk):
        nnsig.parse_public_key(nnsig.serialize_public_key(pk))

    def sig_codec(sig, field):
        nnsig.parse_signature(nnsig.serialize_signature(sig, field), field)

    field = nnsig.Field(p)
    config = nnsig.NetworkConfig(n=n, field=field, rho=LAYER_RHO, seed=b"layers %d" % k)
    weights, schedule = nnsig.build_network(config)
    stages = {"unroll": per_call(nnsig.unroll, [(weights, schedule)])}
    t0 = time.perf_counter()
    pk, sk = nnsig.keygen(config, random.Random(k))
    stages["keygen"] = time.perf_counter() - t0
    stages["signer_setup"] = per_call(sk.signing_matrix, [()])
    rng = random.Random(k)
    sync = nnsig.SyncConfig(weights=sk.weights, q=field.sample_vector(rng, n))
    t0 = time.perf_counter()
    nnsig.run_pair(nnsig.SyncSession.create(sync, random.Random(2 * k)),
                   nnsig.SyncSession.create(sync, random.Random(2 * k + 1)))
    stages["sync_pair"] = time.perf_counter() - t0
    theta = field.sample_vector(rng, n)
    nnsig.verify(pk, theta, b"", nnsig.sign(sk, theta, b"", rng))
    messages = [rng.randbytes(1024) for _ in range(MESSAGES)]
    stages["sign"] = per_call(nnsig.sign, [(sk, theta, m, rng) for m in messages])
    signed = [(pk, theta, m, nnsig.sign(sk, theta, m, rng)) for m in messages]
    stages["verify"] = per_call(nnsig.verify, signed)
    stages["verify_reject"] = per_call(nnsig.verify, [(pk, theta, bytes([m[0] ^ 1]) + m[1:], sig)
                                                      for pk, theta, m, sig in signed])
    fresh = [(pk, field.sample_vector(rng, n)) for _ in range(MESSAGES)]
    stages["theta_switch"] = per_call(nnsig.PublicKey.theta_bias, fresh)
    stages["hash_to_field"] = per_call(nnsig.hash_to_field, [(m, n, field) for m in messages])
    stages["mat_mul"] = per_call(mat_mul, [(pk.w_x_bar, pk.w_theta_bar)])
    stages["det"] = per_call(det, [(pk.w_x_bar,)])
    stages["mat_pow"] = per_call(mat_pow, [(pk.w_x_bar, p - 2)])
    stages["pk_codec"] = per_call(pk_codec, [(pk,)])
    stages["sig_codec"] = per_call(sig_codec, [(sig, field) for *_, sig in signed])
    return f"p={p},n={n}", stages


def cli_child(k: int) -> tuple:
    """Repeat k of the CLI table at perfbench's CLI_PARAMS: ("p=..,n=..", {row: seconds}).

    Each row times one child, as perfbench's cli-session runs them (its
    SubprocessCli, so PYTHONPATH points at the checkout's src and, under this
    tool's ENV, no child writes bytecode): a bare interpreter, ``import
    nnsig``, ``--help``, keygen --export-shared, a sync pair (listener and
    connector, timed together), sign and verify of a 1 KiB message, params and
    attack.
    """
    from harness import CLI_PARAMS, timed_run
    from workloads import SubprocessCli

    cli, seed = SubprocessCli(), "c1%02x" % k
    p, n, rho = map(str, CLI_PARAMS)
    with tempfile.TemporaryDirectory() as work:
        at = lambda name: os.path.join(work, name)  # noqa: E731
        Path(at("m.bin")).write_bytes(bytes(range(256)) * 4)
        runs = {
            "bare": timed_run([sys.executable, "-c", "pass"]),
            "import": timed_run([sys.executable, "-c", "import nnsig"]),
            "help": cli.run(["--help"]),
            "keygen": cli.run(["keygen", "--p", p, "--n", n, "--rho", rho, "--pk-out", at("k.pk"),
                               "--sk-out", at("k.sk"), "--export-shared", at("s.bin"),
                               "--seed", seed]),
        }
        pair, (code_a, _), (code_b, _) = cli.sync_pair(
            ["sync", "--config", at("s.bin"), "--listen", "127.0.0.1:0",
             "--theta-out", at("a.theta"), "--seed", seed + "a1"],
            ["sync", "--config", at("s.bin"), "--theta-out", at("b.theta"), "--seed", seed + "b2"])
        runs["sync_pair"] = (pair, code_a or code_b)
        runs["sign"] = cli.run(["sign", "--sk", at("k.sk"), "--theta", at("a.theta"), "--in",
                                at("m.bin"), "--sig-out", at("m.sig"), "--seed", seed])
        runs["verify"] = cli.run(["verify", "--pk", at("k.pk"), "--theta", at("b.theta"),
                                  "--in", at("m.bin"), "--sig", at("m.sig")])
        runs["params"] = cli.run(["params", "--n", "43", "--p", "257"])
        runs["attack"] = cli.run(["attack", "--n", "4", "--p", "31", "--seed", seed])
    failed = [f"{row} exited {run[1]}" for row, run in runs.items() if run[1] != 0]
    if failed:
        raise SystemExit("; ".join(failed))
    return f"p={p},n={n}", {row: run[0] for row, run in runs.items()}


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
    return run_child(checkout, "layer_child", LAYER_REPEATS, LAYER_SETS)


def run_cli(checkout: Path) -> dict:
    return run_child(checkout, "cli_child", CLI_REPEATS, [[]])  # one set: perfbench's CLI_PARAMS


def run_child(checkout: Path, table: str, repeats: int, sets, timeout=None) -> dict:
    """``child(table, repeats, sets)`` in a child interpreter on checkout's
    src and perfbench, killed after timeout seconds if given; returns what it prints."""
    argv = [sys.executable, "-c", BOOTSTRAP, str(checkout / "src"), str(checkout / "perfbench"),
            str(ROOT / "tools"), table, str(repeats), json.dumps(sets)]
    proc = subprocess.run(argv, env=run_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr[-2000:])
    return json.loads(proc.stdout)


def spread(runs) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


UNITS = {"ms": "milliseconds",
         "cal": "runs of perfbench's calibration kernel (harness.calibration_kernel), "
                "the median of 6 runs around the same repeat",
         "pair_ratio": "per pair, the change's median in cal over the parent's median in "
                       "cal; the median and quartiles of those ratios, the ratios themselves, "
                       "and the number of pairs whose ratio is below 1"}


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
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import cpu_model

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
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "workloads": workloads,
        "layers": layer_table(dirs),
        "cli": cli_table(dirs),
    }
    out = ROOT / f"BENCH_{args.name}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


def stage_rows(dirs: dict, run, label: str) -> dict:
    """Median, quartiles and change of each stage that ``run(checkout)`` times,
    in milliseconds and in runs of perfbench's calibration kernel timed next to it;
    and the spread of the per-pair ratios of the change's median to the parent's,
    in calibration units, with the number of pairs the change won."""
    samples = {"parent": {}, "change": {}}
    for k in range(PAIRS):
        for side, checkout in alternate(k, *dirs.values()):
            for key, result in run(checkout).items():
                for stage, seconds in result["stages"].items():
                    cell = samples[side].setdefault(key, {}).setdefault(
                        stage, {"ms": [], "cal": [], "pair_cal": []})
                    cal = list(map(operator.truediv, seconds, result["calibration"]))
                    cell["ms"].extend(1e3 * s for s in seconds)
                    cell["cal"].extend(cal)
                    cell["pair_cal"].append(statistics.median(cal))
            print(f"{label} pair {k} {side} done", file=sys.stderr, flush=True)
    rows = {}
    for key, stages in samples["parent"].items():
        rows[key] = {}
        for stage, before in stages.items():
            after = samples["change"][key][stage]
            rows[key][stage] = {}
            for unit in ("ms", "cal"):
                cell = compare(before[unit], after[unit], True)
                for side in ("parent", "change"):
                    cell[side] = {k: v for k, v in cell[side].items() if k != "runs"}
                del cell["change_wins"]  # repeats within a pair are not paired samples
                rows[key][stage][unit] = cell
            ratios = list(map(operator.truediv, after["pair_cal"], before["pair_cal"]))
            rows[key][stage]["pair_ratio"] = {**spread(ratios),
                                              "change_wins": sum(r < 1 for r in ratios)}
    return rows


def layer_table(dirs: dict) -> dict:
    return {
        "what": f"time of each stage, rho={LAYER_RHO}, {PAIRS} alternating pairs of one child "
                f"interpreter per checkout, {LAYER_REPEATS} timed repeats per set after one "
                "untimed warm-up repeat; every repeat builds a fresh key and SyncConfig (sync "
                "pair: two SyncSession.create and run_pair, so the squares of W are paid in "
                "it). sign and verify: per message, 16 messages of 1 KiB under one theta, "
                "after one untimed sign and verify; theta_switch: the bias of a fresh theta "
                "on the public key, with verify's packed addend where the key packs it on a "
                "miss, per theta over 16 thetas; verify_reject: verify of the same "
                "signatures on their messages with one byte flipped (rejected after h0); "
                "hash_to_field: the digest of each 1 KiB message; signer_setup is mat_inv(Wbar_x), "
                "the mat_inv row; mat_mul: Wbar_x @ Wbar_theta; det: det(Wbar_x); mat_pow: "
                "Wbar_x^(p-2), the largest exponent keygen can draw, the same at every repeat "
                "of a set; pk_codec: serialize and parse the public key; "
                "sig_codec: serialize and parse a signature, per signature over the 16",
        "units": UNITS,
        "stages": stage_rows(dirs, run_layers, "layers"),
    }


def cli_table(dirs: dict) -> dict:
    return {
        "what": "wall time of one python -m nnsig child per row (the sync pair: listener and "
                "connector together), run as perfbench's cli-session runs them, under "
                f"{ENV}; {PAIRS} alternating pairs of one driver interpreter per checkout, "
                f"{CLI_REPEATS} timed repeats after one untimed warm-up repeat. bare: python -c "
                "pass; import: python -c 'import nnsig'; help: nnsig --help; keygen: keygen "
                "--export-shared at perfbench's CLI_PARAMS; sign and verify: a 1 KiB message; "
                "params: --n 43 --p 257; attack: --n 4 --p 31",
        "units": UNITS,
        "stages": stage_rows(dirs, run_cli, "cli"),
    }


if __name__ == "__main__":
    sys.exit(main())
