"""The ``nnsig params``, ``attack`` and ``bench`` handlers, imported only by
their own children (see ``cli``)."""

from __future__ import annotations

import math
import time

from .cli import EXIT_OK, _emit_json, _master_seed, _net_seed, _rng_for, _say
from .errors import LimitExceeded, ParameterError
from .field import Field, is_prime

# Upper bound on params --p-bits: the prime search below 2^bits takes seconds above it.
MAX_P_BITS = 1024
# Upper bound on params --n: the estimates loop n times, 0.1 s at 2^20.
MAX_PARAMS_N = 1 << 20


def _resolve_params_p(args) -> int:
    if (args.p is None) == (args.p_bits is None):
        raise ParameterError("pick exactly one of --p or --p-bits")
    if args.p is not None:
        if not is_prime(args.p):
            raise ParameterError(f"p={args.p} is not prime")
        return args.p
    if args.p_bits < 2:
        raise ParameterError("--p-bits must be at least 2")
    if args.p_bits > MAX_P_BITS:
        raise LimitExceeded(f"--p-bits {args.p_bits} is above the limit of {MAX_P_BITS}")
    candidate = (1 << args.p_bits) - 1
    while not is_prime(candidate):  # stops at 3 at the latest
        candidate -= 2
    return candidate


def cmd_params(args) -> int:
    from .hardness import estimate

    if args.n > MAX_PARAMS_N:
        raise LimitExceeded(f"--n {args.n} is above the limit of {MAX_PARAMS_N}")
    p = _resolve_params_p(args)
    est = estimate(args.n, p, args.level)
    _say(args, f"n={est.n} p={p} level={est.level}")
    _say(args, f"classical search bits : {est.classical_bits:.4f}")
    _say(args, f"keyspace bits         : {est.keyspace_bits:.4f}")
    _say(args, f"classical >= {est.level:<4d}     : {'PASS' if est.classical_ok else 'FAIL'}")
    _say(args, f"quantum grover (>= {2 * est.level}): {'PASS' if est.quantum_ok_grover else 'FAIL'}")
    _say(args, f"quantum doubled-log (2x >= {est.level}): "
               f"{'PASS' if est.quantum_ok_doubled_log else 'FAIL'}")
    _emit_json(args, est._asdict())
    return EXIT_OK


def cmd_attack(args) -> int:
    from .hardness import (
        SOLVER_N_LIMIT, SOLVER_P_LIMIT, _check_limits, brute_force_solve, make_instance,
    )

    field = Field(args.p)
    # Refuse before planting: the plant alone is an O(n^3) draw and a mat_pow.
    _check_limits(args.n, args.p, SOLVER_N_LIMIT, SOLVER_P_LIMIT)
    rng = _rng_for(_master_seed(args), b"attack")
    instance, planted = make_instance(args.n, field, rng)
    start = time.perf_counter()
    solutions = brute_force_solve(instance)
    elapsed = time.perf_counter() - start
    recovered = planted in solutions
    _say(args, f"planted: a={planted.exponent} perm={list(planted.perm.perm)}")
    _say(args, f"search space: (p-1) * n! = {(args.p - 1)} * {math.factorial(args.n)} candidates")
    for s in solutions:
        marker = "  <- planted" if s == planted else ""
        _say(args, f"solution: a={s.exponent} perm={list(s.perm.perm)}{marker}")
    _say(args, f"{len(solutions)} solution(s) in {elapsed:.3f}s; planted recovered: {recovered}")
    _emit_json(
        args,
        {
            "n": args.n,
            "p": args.p,
            "planted": {"a": planted.exponent, "perm": list(planted.perm.perm)},
            "solutions": [{"a": s.exponent, "perm": list(s.perm.perm)} for s in solutions],
            "elapsed_s": elapsed,
            "recovered": recovered,
        },
    )
    return EXIT_OK


def cmd_bench(args) -> int:
    from .metrics import (
        REPORTED_PROFILES,
        discrepancies,
        formula_sizes,
        instrumented_counts,
        measured_sizes,
        op_count_report,
    )
    from .network import NetworkConfig
    from .scheme import keygen, sign

    profile = formula_sizes(args.n, args.p, args.rho)
    master = _master_seed(args)
    field = Field(args.p)
    config = NetworkConfig(n=args.n, field=field, rho=args.rho, seed=_net_seed(master))
    rng = _rng_for(master, b"bench")
    pk, sk = keygen(config, rng)
    theta = field.sample_vector(rng, args.n)
    signature = sign(sk, theta, b"bench message", rng)
    actual = measured_sizes(pk, sk, signature)
    ops = op_count_report(args.n, args.p)
    flagged = discrepancies(profile)

    _say(args, f"parameters: p={args.p} n={args.n} rho={args.rho}")
    _say(args, "sizes (formula):")
    _say(args, f"  pk  {profile.pk_bytes} bytes | sk {profile.sk_bytes} bytes | "
               f"sig {profile.sig_bits} bits | hash {profile.hash_bits} bits")
    _say(args, "sizes (measured, headers included):")
    _say(args, f"  pk  {actual.pk_bytes} bytes | sk {actual.sk_bytes} bytes | "
               f"sig {actual.sig_bytes} bytes = {actual.sig_bits} bits")
    _say(args, "field operations (closed form):")
    _say(args, f"  sign {ops.sign_ops:.2f} | verify {ops.verify_ops} | "
               f"keygen ~ {ops.keygen_bound:.0f}")
    instrumented = None
    if args.instrument:
        instrumented = instrumented_counts(args.n, args.p, args.rho)
        _say(args, "field operations (instrumented tallies):")
        for phase in ("keygen", "sign", "verify"):
            _say(args, f"  {phase:<6s} {instrumented[phase]['total']}")
    _say(args, "reported reference rows:")
    for (rp, rn, rrho), row in sorted(REPORTED_PROFILES.items(), key=lambda kv: kv[0][1]):
        _say(args, f"  (p={rp}, n={rn}, rho={rrho}) level {row['level']}: "
                   f"hash {row['hash_bits']} bits, sig {row['sig_bits']} bits, "
                   f"pk {row['pk_bytes']} B, sk {row['sk_bytes']} B")
    if flagged:
        _say(args, "formula vs reported mismatches for this parameter set:")
        for key, pair in sorted(flagged.items()):
            _say(args, f"  {key}: formula {pair['formula']} != reported {pair['reported']}")
    payload = {
        "p": args.p,
        "n": args.n,
        "rho": args.rho,
        "formula": {
            "pk_bytes": profile.pk_bytes,
            "sk_bytes": profile.sk_bytes,
            "sig_bits": profile.sig_bits,
            "hash_bits": profile.hash_bits,
        },
        "measured": {
            "pk_bytes": actual.pk_bytes,
            "sk_bytes": actual.sk_bytes,
            "sig_bytes": actual.sig_bytes,
            "sig_bits": actual.sig_bits,
        },
        "ops": {
            "sign": ops.sign_ops,
            "verify": ops.verify_ops,
            "keygen_bound": ops.keygen_bound,
        },
        "reported": {f"{k[0]},{k[1]},{k[2]}": v for k, v in REPORTED_PROFILES.items()},
        "mismatches": flagged,
    }
    if instrumented is not None:
        payload["instrumented"] = instrumented
    _emit_json(args, payload)
    return EXIT_OK
