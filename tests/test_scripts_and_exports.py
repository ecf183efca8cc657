"""Every script starts and imports no private name, every exported name
resolves, the package and the CLI load without numpy, every function the
benchmark tracer patches still exists, one loop does all training, one
module reads the config stamps of run-directory files, only the CLI's
``main`` loads a config and picks the exit code, only ``run_phase1``
builds a ``Phase1Result``, and only ``nn`` lays layers over a parameter
vector or draws their init.

A script, an ``__all__`` entry or a tracer patch point that still names a
removed function fails here instead of at its first real use.
"""

import ast
import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import traceweights

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_start_and_exports_resolve():
    assert SCRIPTS
    for script in SCRIPTS:
        proc = subprocess.run(
            [sys.executable, str(script), "--help"], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, f"{script.name}: {proc.stderr}"

    missing = [n for n in traceweights.__all__ if not hasattr(traceweights, n)]
    for info in pkgutil.iter_modules(traceweights.__path__):
        module = import_module(f"traceweights.{info.name}")
        missing += [
            f"{info.name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)
        ]
    assert not missing


def test_scripts_import_no_private_names():
    # a script that needs a private name needs it made public in its module
    found = [
        f"{script.name}: {node.module}.{alias.name}"
        for script in SCRIPTS
        for node in ast.walk(ast.parse(script.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "traceweights"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not found


def test_package_and_cli_import_without_numpy():
    # the CLI's --threads pins the BLAS pool, which holds only if numpy is not yet loaded
    src = str(Path(traceweights.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import traceweights, traceweights.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    proc = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_tracer_patch_points_resolve():
    # read, not imported: the tracer's table of (module, attribute) patch points
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    table = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "_FUNCTIONS"
    )
    assert table
    missing = [
        f"{mod}.{attr}"
        for mod, attrs in table.items()
        for attr in attrs
        if not hasattr(import_module(f"traceweights.{mod}"), attr)
    ]
    assert not missing
    assert hasattr(import_module("traceweights.nn").Adam, "step")


def _adam_calls(tree):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", "")) == "Adam"
    ]


def test_nn_train_is_the_only_code_that_builds_an_optimizer():
    # one training loop: a second Adam(...) in the package is a second loop
    src = ROOT / "src" / "traceweights"
    calls = {p.stem: len(_adam_calls(ast.parse(p.read_text()))) for p in src.glob("*.py")}
    assert {module: n for module, n in calls.items() if n} == {"nn": 1}
    train = next(
        node
        for node in ast.parse((src / "nn.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "train"
    )
    assert len(_adam_calls(train)) == 1


def _stamp_reads(tree):
    def is_key(node):
        return isinstance(node, ast.Constant) and node.value == "config_digest"

    return [
        node
        for node in ast.walk(tree)
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load) and is_key(node.slice))
        or (isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "get"
            and node.args and is_key(node.args[0]))
    ]


def test_artifacts_is_the_only_module_that_reads_a_config_stamp():
    # one stamp check: a second reader of "config_digest" is a second check
    src = ROOT / "src" / "traceweights"
    readers = {p.stem for p in src.glob("*.py") if _stamp_reads(ast.parse(p.read_text()))}
    assert readers == {"artifacts"}


def test_cli_main_alone_loads_the_config_and_sets_the_exit_code():
    # one preamble: a handler that loads a config, or returns a code of its own, is a second one
    tree = ast.parse((ROOT / "src" / "traceweights" / "cli.py").read_text())
    handlers = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
    ]
    assert len(handlers) == 8
    found = [
        f"{h.name}: {ast.unparse(node)}"
        for h in handlers
        for node in ast.walk(h)
        if (isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", ""))
            in ("_load_config", "load_run_config"))
        or (isinstance(node, ast.Return)
            and not (isinstance(node.value, ast.Constant) and node.value.value == 0))
    ]
    assert not found


def test_run_phase1_alone_builds_a_phase1_result():
    # a Phase1Result is a finished in-memory run; a run directory reads back as a Translator
    src = ROOT / "src" / "traceweights"
    builders = [
        f"{p.stem}.{getattr(top, 'name', '<module>')}"
        for p in sorted(src.glob("*.py"))
        for top in ast.parse(p.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", "")) == "Phase1Result"
    ]
    assert builders == ["pipeline.run_phase1"]


def test_nn_alone_binds_layers_and_draws_their_init():
    # one parameter layout and one init: a .bind( or an rng's .uniform( elsewhere is a second
    src = ROOT / "src" / "traceweights"
    found = [
        f"{p.stem}.{getattr(top, 'name', '<module>')}: {ast.unparse(node)}"
        for p in sorted(src.glob("*.py"))
        for top in ast.parse(p.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", "") in ("bind", "uniform")
        and (p.stem != "nn" or node.func.attr == "uniform")
    ]
    assert not found
