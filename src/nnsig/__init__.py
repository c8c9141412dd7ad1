"""nnsig: signature scheme over Z_p built from an unrolled binary-weight
recurrent network, plus the bias-synchronization protocol, hardness
estimators, and measurement helpers.

Submodules load on first use (PEP 562): ``import nnsig`` runs no submodule
code, and a public name imports the module that defines it when first read,
so ``nnsig.sign`` loads ``scheme``, and ``nnsig.verify`` ``_public``, not ``scheme``.
"""

import _thread
import importlib
import importlib.util
import sys
import types

_LOAD_LOCK = _thread.RLock()


class _LoadOnFirstRead(types.ModuleType):
    """A module whose code runs once, on its first attribute read, under a lock
    that other threads wait on (importlib's lazy loader takes none on Python
    3.10 and 3.11); once ``loader_state`` holds the lock, reads pass through."""

    def __getattribute__(self, attr):
        read = types.ModuleType.__getattribute__
        with _LOAD_LOCK:
            spec = read(self, "__spec__")
            if spec.loader_state is not _LOAD_LOCK:
                spec.loader_state = _LOAD_LOCK
                spec.loader.exec_module(self)
                self.__class__ = types.ModuleType
        return read(self, attr)


# perfbench/tracing.py's Tracer.install() reads sys.modules["nnsig.hardness"]
# before anything asks for it, so it is registered there now and runs when read.
hardness = importlib.util.module_from_spec(importlib.util.find_spec(f"{__name__}.hardness"))
sys.modules[hardness.__name__] = hardness
hardness.__class__ = _LoadOnFirstRead

__version__ = "0.1.0"

_PUBLIC = {  # each public name under the module that defines it, its __module__
    "errors": (
        "DimensionMismatch", "InvalidStateError", "LengthOverflow", "LimitExceeded",
        "MalformedEncoding", "MalformedFrame", "NnsigError", "ParameterError",
        "SingularMatrixError", "SingularWeightsError", "UnknownTag", "UnsupportedVersion",
    ),
    "field": ("Field", "OpCounter", "count_ops", "is_prime"),
    "_packed": ("MatrixZp",),
    "matrix": ("PermutationMatrix", "from_rows"),
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
    "_public": (
        "PublicKey", "Signature", "hash_to_field", "parse_public_key", "parse_signature",
        "serialize_public_key", "serialize_signature", "verify",
    ),
    "scheme": ("SecretKey", "derive_keypair", "keygen", "parse_secret_key",
               "serialize_secret_key", "sign"),
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
