"""Cold start: what a fresh interpreter loads for ``import nnsig`` and for each
CLI subcommand, that the lazily loaded package exposes the same API, and that
the package, the tests and CI's inline Python import a name from the module
that defines it."""

from __future__ import annotations

import ast
import gc
import importlib
import json
import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import nnsig
from nnsig import cli
from nnsig._public import encode_theta, serialize_public_key, serialize_signature
from nnsig.field import Field
from nnsig.network import NetworkConfig
from nnsig.scheme import keygen, serialize_secret_key, sign

PACKAGE = Path(nnsig.__file__).resolve().parent
REPO = Path(__file__).resolve().parent.parent
SUBMODULES = ("errors", "field", "hardness", "matrix", "metrics", "network", "scheme", "sync")
# The 63 public names of the package before its submodules loaded lazily, and
# from_rows, the matrix constructor that reduces entries.
PUBLIC = (
    "AttentionSchedule DimensionMismatch Field InvalidStateError LengthOverflow LimitExceeded "
    "MalformedEncoding MalformedFrame MatrixPowerInstance MatrixPowerSolution MatrixZp "
    "NetworkConfig NnsigError OpCounter ParameterError PermutationMatrix PublicKey SecretKey "
    "SecurityEstimate Signature SingularMatrixError SingularWeightsError SynapticWeights "
    "SyncConfig SyncSession UnknownTag UnrolledMaps UnsupportedVersion binarize "
    "brute_force_solve build_network classical_security_bits classical_security_ok count_ops "
    "derive_keypair estimate evolve_iterative formula_sizes forward from_rows generate_attention "
    "hash_to_field instrumented_counts invert is_prime keygen keyspace_bits make_instance "
    "measured_sizes op_count_report parse_public_key parse_secret_key parse_signature "
    "quantum_security_ok run_over_socket run_pair serialize_public_key serialize_secret_key "
    "serialize_signature sign unroll verify wire_decode wire_encode"
).split()

# Standard modules no child may load: dataclasses pulls in inspect, and the two
# cost each child more than a small subcommand's own work.
HEAVY = {"dataclasses", "inspect"}
# The modules of the sync handler and of the params, attack and bench handlers.
HANDLERS = {"nnsig._cli_sync", "nnsig._cli_analysis"}

# Runs in a fresh interpreter: nothing (``bare``), ``import nnsig`` or
# ``python -m nnsig ARGS``, then writes the exit code and the loaded modules.
# Under COLD_START_NO_DNS every name lookup fails as one of an unknown host
# does, without asking a resolver.
CHILD = """
import os, runpy, sys
if os.environ.get("COLD_START_NO_DNS"):
    import socket
    def _no_such_host(*args, **kwargs):
        raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")
    socket.getaddrinfo = _no_such_host
out, args = sys.argv[1], sys.argv[2:]
code = 0
if args == ["import"]:
    import nnsig
elif args != ["bare"]:
    sys.argv = ["nnsig", *args]
    try:
        runpy.run_module("nnsig", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
modules = sorted(sys.modules)
import json
with open(out, "w") as fh:
    json.dump({"code": code, "modules": modules}, fh)
"""


def _child(tmp_path, *args, no_dns=False):
    env = dict(os.environ, COLD_START_NO_DNS="1" if no_dns else "")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    out = tmp_path / "modules.json"
    subprocess.run([sys.executable, "-c", CHILD, str(out), *args], cwd=tmp_path, env=env,
                   check=True, timeout=60, capture_output=True)
    result = json.loads(out.read_text())
    return result["code"], set(result["modules"])


# Runs ``python -m nnsig ARGS`` in a fresh interpreter, as CHILD does, with an
# atexit handler, which runs after entry() has left and before the
# interpreter's teardown: it writes the number of objects gc.freeze() has moved
# out of the final collection's reach.
EXIT_PROBE = """
import atexit, gc, runpy, sys
out, args = sys.argv[1], sys.argv[2:]
def probe():
    with open(out, "w") as fh:
        fh.write(str(gc.get_freeze_count()))
atexit.register(probe)
sys.argv = ["nnsig", *args]
runpy.run_module("nnsig", run_name="__main__", alter_sys=True)
"""


def _frozen_at_exit(cwd, *args, dev=False):
    """The exit code of a fresh ``python [-X dev] -m nnsig ARGS`` and the
    freeze count its atexit handlers saw."""
    out = cwd / "frozen.txt"
    flags = ["-X", "dev"] if dev else []
    run = subprocess.run([sys.executable, *flags, "-c", EXIT_PROBE, str(out), *args], cwd=cwd,
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
                         capture_output=True, timeout=60)
    return run.returncode, int(out.read_text())


# Runs in a fresh interpreter: 8 threads behind a barrier make the first read
# of hardness at once, through the module or through a name the package routes
# there, with a short switch interval so they interleave often; the errors
# they raise, and any thread still running after its join, print as JSON.
RACE = """
import json, sys, threading
import nnsig
read = {"module": lambda: nnsig.hardness.classical_security_bits(26, 257),
        "name": lambda: nnsig.estimate(26, 257, 80)}[sys.argv[1]]
sys.setswitchinterval(1e-5)
barrier, errors = threading.Barrier(8, timeout=20), []
def run():
    barrier.wait()
    try:
        read()
    except Exception as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=run, daemon=True) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(20)
errors += ["still running"] * sum(thread.is_alive() for thread in threads)
print(json.dumps(errors))
"""


def _fresh(code, *args):
    """The JSON a fresh interpreter running ``code`` prints."""
    run = subprocess.run([sys.executable, "-c", code, *args],
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
                         check=True, capture_output=True, text=True, timeout=60)
    return json.loads(run.stdout)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A key pair, a theta and a signature on disk, made in this process."""
    root = tmp_path_factory.mktemp("cold")
    field = Field(257)
    pk, sk = keygen(NetworkConfig(n=6, field=field, rho=4, seed=b"cold"), random.Random(1))
    theta = field.sample_vector(random.Random(2), 6)
    (root / "k.pk").write_bytes(serialize_public_key(pk))
    (root / "k.sk").write_bytes(serialize_secret_key(sk))
    (root / "t.theta").write_bytes(encode_theta(field, theta))
    (root / "m.txt").write_bytes(b"cold start")
    sig = sign(sk, theta, b"cold start", random.Random(3))
    (root / "m.sig").write_bytes(serialize_signature(sig, field))
    return root


def test_import_runs_no_submodule_code(tmp_path):
    """hardness is registered for the benchmark's tracer but runs only when
    first read, so not even errors, which it imports, is loaded."""
    _, bare = _child(tmp_path, "bare")
    code, modules = _child(tmp_path, "import")
    assert code == 0
    assert {m for m in modules if m.startswith("nnsig.")} == {"nnsig.hardness"}
    assert not {"socket", "json", "secrets", "argparse"} & (modules - bare)
    assert not HEAVY & modules


@pytest.mark.parametrize("args", [["import"], ["--help"], ["params", "--n", "26", "--p", "257"]])
def test_import_help_and_params_skip_the_matrix_module(tmp_path, args):
    """hardness imports matrix only inside the functions that use it."""
    code, modules = _child(tmp_path, *args)
    assert code == 0
    assert "nnsig.hardness" in modules
    assert "nnsig.matrix" not in modules


VERIFY = ["verify", "--pk", "k.pk", "--theta", "t.theta", "--in", "m.txt", "--sig", "m.sig"]


@pytest.mark.parametrize("args, code", [
    (VERIFY, 0),
    (["verify", "--pk", "k.pk", "--theta", "t.theta", "--in", "k.pk", "--sig", "m.sig"], 5),
    (["sign"], 2),
    (["--help"], 0),
], ids=["accepted", "rejected", "usage-error", "help"])
def test_cli_child_exits_with_its_objects_frozen(files, args, code):
    """entry() freezes on every way out, so the interpreter's final collection
    does not free what the OS reclaims at exit."""
    exit_code, frozen = _frozen_at_exit(files, *args)
    assert exit_code == code
    assert frozen > 0


def test_dev_mode_and_in_process_main_keep_the_full_teardown(files):
    """Under -X dev nothing is frozen, so the final collection still sees,
    and reports, a file leaked in a cycle; main() freezes nothing in its
    caller's process."""
    assert _frozen_at_exit(files, *VERIFY, dev=True) == (0, 0)
    assert cli.main(["verify", "--pk", str(files / "k.pk"), "--theta", str(files / "t.theta"),
                     "--in", str(files / "m.txt"), "--sig", str(files / "m.sig")]) == 0
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("command", ["sign", "verify", "keygen"])
def test_sign_and_verify_skip_sync_metrics_and_socket(files, command):
    args = {
        "sign": ["sign", "--sk", "k.sk", "--theta", "t.theta", "--in", "m.txt",
                 "--sig-out", "out.sig", "--seed", "01"],
        "verify": ["verify", "--pk", "k.pk", "--theta", "t.theta", "--in", "m.txt",
                   "--sig", "m.sig"],
        # The shared-setup codec lives in network, so this child needs no sync.
        "keygen": ["keygen", "--n", "6", "--rho", "4", "--seed", "06", "--pk-out", "x.pk",
                   "--sk-out", "x.sk", "--export-shared", "x.bin"],
    }[command]
    code, modules = _child(files, *args)
    assert code == 0
    # The sign and keygen children are seeded and verify draws nothing: none
    # needs the CSPRNG, and none loads another subcommand's handler.
    assert not {"nnsig.sync", "nnsig.metrics", "socket", "secrets", *HANDLERS, *HEAVY} & modules
    # Verify builds no key from secret parts and runs no set-up kernel: it
    # loads the public half of scheme and the per-message half of matrix.
    setup_path = {"nnsig.matrix", "nnsig.scheme", "nnsig.network"}
    assert setup_path & modules == (set() if command == "verify" else setup_path)
    assert {"nnsig._public", "nnsig._packed"} <= modules


@pytest.mark.parametrize("args", [
    ["params", "--n", "26", "--p", "257"],
    ["attack", "--n", "3", "--p", "7", "--seed", "02"],
    ["attack", "--n", "3", "--p", "7"],
])
def test_params_and_attack_skip_scheme_and_sync(tmp_path, args):
    code, modules = _child(tmp_path, *args)
    assert code == 0
    assert "nnsig.hardness" in modules
    # A seeded attack draws through field._sub_rng, so no child loads network.
    assert not {"nnsig.scheme", "nnsig.sync", "nnsig.network", "nnsig._cli_sync",
                *HEAVY} & modules


def test_unresolvable_host_still_exits_connect(files):
    code, modules = _child(files, "keygen", "--n", "6", "--rho", "4", "--seed", "03",
                           "--export-shared", "s.bin")
    assert code == 0
    assert not {"secrets", "nnsig.sync", *HANDLERS, *HEAVY} & modules
    # The lookup fails inside the child, so no query leaves the machine.
    code, modules = _child(files, "sync", "--config", "s.bin",
                           "--connect", "no-such-host.invalid:1", no_dns=True)
    assert code == 4
    assert "socket" in modules
    assert not HEAVY & modules
    # A seeded session draws its exponents from the seed alone; port 1 on the
    # loopback refuses the connection.
    code, modules = _child(files, "sync", "--config", "s.bin", "--connect", "127.0.0.1:1",
                           "--seed", "05")
    assert code == 4
    assert not {"secrets", *HEAVY} & modules
    # The sync child reads its codecs from network and _public, not the signer's module.
    assert {"nnsig.sync", "nnsig.network"} <= modules
    assert "nnsig.scheme" not in modules


def test_sync_module_loads_no_signer():
    """sync imports the setup codec from network and the theta codec and
    hash_to_field from _public, so importing it leaves scheme unloaded."""
    modules = set(_fresh("import json, sys, nnsig.sync\nprint(json.dumps(sorted(sys.modules)))\n"))
    assert {"nnsig.sync", "nnsig.network", "nnsig._public"} <= modules
    assert "nnsig.scheme" not in modules


@pytest.mark.parametrize("args", [
    ["bench", "--n", "6", "--rho", "4", "--seed", "04"],
    ["bench", "--n", "6", "--rho", "4", "--seed", "04", "--instrument", "--json"],
])
def test_bench_skips_heavy_modules(tmp_path, args):
    code, modules = _child(tmp_path, *args)
    assert code == 0
    assert "nnsig.metrics" in modules
    assert not HEAVY & modules


@pytest.mark.parametrize("path", ["module", "name"])
def test_first_read_of_hardness_is_safe_under_threads(path):
    """No thread sees hardness half run: the first read runs it under a lock."""
    assert [_fresh(RACE, path) for _ in range(5)] == [[]] * 5


def test_verify_path_names_load_only_the_verify_path():
    """Each name is read from the module that defines it, so the names a
    verifier uses load _public and _packed and none of the set-up modules."""
    modules = set(_fresh(
        "import json, sys, nnsig\n"
        "for name in sys.argv[1:]:\n"
        "    getattr(nnsig, name)\n"
        "print(json.dumps(sorted(sys.modules)))\n",
        "verify", "parse_public_key", "parse_signature", "hash_to_field", "PublicKey",
        "Signature", "MatrixZp"))
    assert {"nnsig._public", "nnsig._packed"} <= modules
    assert not {"nnsig.matrix", "nnsig.scheme", "nnsig.network"} & modules


def test_every_name_resolves_to_its_home_object():
    # In a fresh interpreter, so every name goes through the lazy lookup.
    fresh = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, types, nnsig\n"
         "names = sorted(set(dir(nnsig)) | set(nnsig.__all__))\n"
         "ok = {}\n"
         "for name in sys.argv[1:]:\n"
         "    value = getattr(nnsig, name)\n"
         "    if isinstance(value, types.ModuleType):\n"
         "        ok[name] = value is sys.modules['nnsig.' + name]\n"
         "    else:\n"
         "        home = sys.modules[value.__module__]\n"
         "        ok[name] = home.__name__ != 'nnsig' and getattr(home, name) is value\n"
         "print(json.dumps({'names': names, 'ok': ok}))\n",
         *PUBLIC, *SUBMODULES],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        check=True, capture_output=True, text=True, timeout=60,
    )
    result = json.loads(fresh.stdout)
    assert set(PUBLIC) | set(SUBMODULES) <= set(result["names"])
    assert result["ok"] == {name: True for name in (*PUBLIC, *SUBMODULES)}


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from nnsig import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)
    assert sorted(nnsig.__all__) == sorted(PUBLIC)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nnsig.no_such_name  # noqa: B018


def _defined_at_top_level(tree) -> set:
    """The names a module binds itself at its top level: by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return names


def test_every_relative_import_names_the_defining_module():
    """Each ``from .X import name`` in the package, inside functions and
    TYPE_CHECKING blocks too, reads name from the module that defines it,
    never through a module that only imports it."""
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    defined = {stem: _defined_at_top_level(tree) for stem, tree in trees.items()}
    through = [f"{stem}:{node.lineno} .{node.module}.{alias.name}"
               for stem, tree in sorted(trees.items()) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
               for alias in node.names if alias.name not in defined[node.module]]
    assert through == []


def test_every_import_in_tests_and_ci_names_the_defining_module():
    """Each ``from nnsig.X import name`` in the tests and in the workflow's
    inline Python reads name from the module that defines it, and each
    ``from nnsig import name`` takes a public name or a submodule."""
    defined = {path.stem: _defined_at_top_level(ast.parse(path.read_text()))
               for path in PACKAGE.glob("*.py")}
    sources = {path.name: path.read_text() for path in Path(__file__).parent.glob("*.py")}
    workflow = (REPO / ".github" / "workflows" / "tests.yml").read_text()
    scripts = [textwrap.dedent(code) for code in re.findall(r"python3 -c '(.*?)'", workflow, re.S)]
    assert any("from nnsig." in script for script in scripts)
    sources.update((f"tests.yml script {i}", script) for i, script in enumerate(scripts))
    through = []
    for where, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if not (isinstance(node, ast.ImportFrom) and node.level == 0
                    and (node.module or "").split(".")[0] == "nnsig"):
                continue
            home = node.module.partition(".")[2]
            homes = defined.get(home, set()) if home else {*nnsig.__all__, *defined}
            through += [f"{where}:{node.lineno} {node.module}.{alias.name}"
                        for alias in node.names if alias.name not in homes]
    assert through == []


def _names_read(tree) -> set:
    """The names a module reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def test_every_module_level_name_is_read():
    """Each def, class and constant at a package module's top level is read
    by package code besides its definition, is public, is a dunder, is the
    ``cmd_<command>`` handler of the module ``cli.COMMANDS`` gives for it, or
    is read by the benchmark (its tracer names what it patches in strings):
    no helper lives in the package for the tests alone."""
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    bench_dir = REPO / "perfbench"
    bench = [ast.parse(path.read_text()) for path in bench_dir.glob("*.py")]
    assert bench
    read = set().union(*map(_names_read, [*trees.values(), *bench]))
    read |= {word for tree in bench for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             for word in node.value.split(".")}
    handlers = {(home.rsplit(".", 1)[-1], f"cmd_{command}")
                for command, (_, home, _) in cli.COMMANDS.items()}
    unread = [f"{stem}.{name}" for stem, tree in sorted(trees.items())
              for name in sorted(_defined_at_top_level(tree))
              if name not in read and name not in nnsig.__all__ and (stem, name) not in handlers
              and not (name.startswith("__") and name.endswith("__"))]
    assert unread == []


def _traced() -> dict:
    """perfbench's tracer's ``TRACED`` table: module -> the attributes it patches."""
    tracing = REPO / "perfbench" / "tracing.py"
    return next(ast.literal_eval(node.value) for node in ast.parse(tracing.read_text()).body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "TRACED")


def test_traced_names_resolve_on_their_modules():
    """Every (module, attribute) that perfbench's tracer patches resolves on
    nnsig.<module>, a method through its class, and a function is the object
    its home module holds, so one wrapper replaces each binding of it."""
    traced = _traced()
    missing = []
    for module_name, attrs in traced.items():
        module = importlib.import_module(f"nnsig.{module_name}")
        for attr in attrs:
            if "." in attr:  # a method, patched on its class
                cls_name, meth = attr.split(".")
                ok = meth in vars(getattr(module, cls_name, object))
            else:
                fn = getattr(module, attr, None)
                ok = fn is not None and getattr(sys.modules[fn.__module__], fn.__name__) is fn
            if not ok:
                missing.append(f"{module_name}.{attr}")
    assert traced and not missing


def test_aliases_are_only_what_perfbench_reads():
    """A name a package module imports from a sibling and never reads is an
    alias.  Each alias is a name perfbench reads as ``nnsig.<module>.<name>``:
    in its tracer's ``TRACED`` table (a method by its class) or in its code;
    and each name perfbench reads so is bound on that module."""
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    reads = {module: {attr.split(".")[0] for attr in attrs} for module, attrs in _traced().items()}
    for path in (REPO / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                    and isinstance(node.value.value, ast.Name) and node.value.value.id == "nnsig"
                    and node.value.attr in trees):
                reads.setdefault(node.value.attr, set()).add(node.attr)
    unread, unbound = [], []
    for stem, tree in sorted(trees.items()):
        imported = {alias.asname or alias.name for node in tree.body
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    for alias in node.names}
        read = reads.pop(stem, set())
        unread += [f"{stem}.{name}" for name in sorted(imported - _names_read(tree) - read)]
        unbound += [f"{stem}.{name}" for name in sorted(read - imported
                                                        - _defined_at_top_level(tree))]
    assert (unread, unbound, reads) == ([], [], {})
