"""nnsig: signature scheme over Z_p built from an unrolled binary-weight
recurrent network, plus the bias-synchronization protocol, hardness
estimators, and measurement helpers.

Submodules load on first use (PEP 562): ``import nnsig`` runs no submodule
code, and ``nnsig.sign`` or ``nnsig.sync`` imports its home module when first
read.
"""

import importlib
import importlib.util
import sys

# perfbench/tracing.py's Tracer.install() reads sys.modules["nnsig.hardness"]
# before anything else has asked for it, so the module is registered there now
# and runs on its first attribute read.  No nnsig code reads it from two
# threads before then: Python 3.10 and 3.11 do not lock a lazy first load.
_spec = importlib.util.find_spec(f"{__name__}.hardness")
_spec.loader = importlib.util.LazyLoader(_spec.loader)
hardness = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(hardness)
del _spec

__version__ = "0.1.0"

_PUBLIC = {
    "errors": (
        "DimensionMismatch", "InvalidStateError", "LengthOverflow", "LimitExceeded",
        "MalformedEncoding", "MalformedFrame", "NnsigError", "ParameterError",
        "SingularMatrixError", "SingularWeightsError", "UnknownTag", "UnsupportedVersion",
    ),
    "field": ("Field", "OpCounter", "count_ops", "is_prime"),
    "matrix": ("MatrixZp", "PermutationMatrix"),
    "network": (
        "AttentionSchedule", "NetworkConfig", "SynapticWeights", "UnrolledMaps", "binarize",
        "build_network", "evolve_iterative", "forward", "generate_attention", "invert",
        "unroll",
    ),
    "hardness": (
        "MatrixPowerInstance", "MatrixPowerSolution", "SecurityEstimate",
        "brute_force_solve", "classical_security_bits", "classical_security_ok", "estimate",
        "keyspace_bits", "make_instance", "quantum_security_ok",
    ),
    "scheme": (
        "PublicKey", "SecretKey", "Signature", "derive_keypair", "hash_to_field", "keygen",
        "parse_public_key", "parse_secret_key", "parse_signature", "serialize_public_key",
        "serialize_secret_key", "serialize_signature", "sign", "verify",
    ),
    "sync": ("SyncConfig", "SyncSession", "run_over_socket", "run_pair", "wire_decode",
             "wire_encode"),
    "metrics": ("formula_sizes", "instrumented_counts", "measured_sizes", "op_count_report"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_PUBLIC))
