"""Import budget of the CLI.

``check`` is the one-shot command users pay interpreter start-up for,
so ``import repro.cli`` must load only argparse, the core checker and
``repro.io``; every other command imports its own stack inside its
``cmd_*`` function.  The budget is a denylist of module names checked
in fresh interpreters, not a module count, so unrelated growth of the
checker does not churn it.

Lazy imports turn a forgotten import into a ``NameError`` in a rarely
run command, so the last test resolves every name each function in
``cli.py`` reads statically.
"""

import builtins
import json
import os
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

import repro
import repro.cli
from repro.figures import figure1_system, figure3_system
from repro.io import save

SRC = str(Path(repro.__file__).resolve().parents[1])

#: what a cold ``check`` must never load (a package name covers its
#: submodules)
CHECK_DENYLIST = (
    "repro.simulator",
    "repro.analysis.batch",
    "repro.workloads",
    "repro.lint",
    "repro.stream",
    "repro.viz",
    "repro.criteria",
    "multiprocessing",
)


def loaded_modules(code):
    """The ``sys.modules`` names after running ``code`` in a fresh
    interpreter (its standard output is discarded)."""
    script = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH", "")) if p
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return set(json.loads(completed.stdout.splitlines()[-1]))


def denied(modules, denylist=CHECK_DENYLIST):
    return sorted(
        m
        for m in modules
        if any(m == d or m.startswith(d + ".") for d in denylist)
    )


@pytest.fixture()
def documents(tmp_path):
    accepted = tmp_path / "fig1.json"
    rejected = tmp_path / "fig3.json"
    save(figure1_system(), accepted)
    save(figure3_system(), rejected)
    return str(accepted), str(rejected)


def test_import_cli_loads_no_command_stack():
    assert denied(loaded_modules("import repro.cli")) == []


def test_check_loads_no_command_stack(documents):
    accepted, rejected = documents
    modules = loaded_modules(
        "from repro.cli import main\n"
        f"assert main(['check', '--strict', {accepted!r}]) == 0\n"
        f"assert main(['check', '--strict', '--explain', {rejected!r}]) == 2\n"
    )
    assert "repro.core.correctness" in modules
    assert denied(modules) == []


def test_analysis_leaf_import_does_not_run_the_package():
    modules = loaded_modules("import repro.analysis.tables")
    analysis = sorted(m for m in modules if m.startswith("repro.analysis"))
    assert analysis == ["repro.analysis", "repro.analysis.tables"]


def test_serial_lint_loads_no_process_pool(documents):
    accepted, _ = documents
    modules = loaded_modules(
        "from repro.cli import main\n"
        f"main(['lint', '--workers', '1', {accepted!r}])\n"
    )
    assert "repro.lint.report" in modules
    assert denied(modules, ("concurrent.futures.process",)) == []


#: what a ``watch`` must never load: the simulator and the batch
#: supervision stack have nothing to do with tailing one log
WATCH_DENYLIST = (
    "repro.simulator",
    "repro.schedulers",
    "repro.analysis.supervise",
    "repro.analysis.batch",
    "multiprocessing",
)


def test_watch_loads_no_simulator_or_supervision(documents, tmp_path):
    from repro.io import load
    from repro.io.eventlog import events_from_recorded, save_event_log

    log = tmp_path / "fig1.jsonl"
    save_event_log(events_from_recorded(load(documents[0])), log)
    modules = loaded_modules(
        "from repro.cli import main\n"
        f"assert main(['watch', {str(log)!r}]) == 0\n"
    )
    assert "repro.stream.checker" in modules
    assert denied(modules, WATCH_DENYLIST) == []


# ----------------------------------------------------------------------
# names resolve
# ----------------------------------------------------------------------
def _function_tables(table):
    for child in table.get_children():
        if child.get_type() == "function":
            yield child
        yield from _function_tables(child)


def unresolved_names(source, filename):
    """``(function, name)`` for every name a function reads that is
    neither a local (a local import included), an enclosing function's
    variable, a module global nor a builtin."""
    module = symtable.symtable(source, filename, "exec")
    module_globals = {
        s.get_name()
        for s in module.get_symbols()
        if s.is_assigned() or s.is_imported() or s.is_namespace()
    }
    known = module_globals | set(dir(builtins)) | {"__file__"}
    return sorted(
        (function.get_name(), symbol.get_name())
        for function in _function_tables(module)
        for symbol in function.get_symbols()
        if symbol.is_referenced()
        and symbol.is_global()
        and symbol.get_name() not in known
    )


def test_cli_names_resolve():
    path = Path(repro.cli.__file__)
    assert unresolved_names(path.read_text(encoding="utf-8"), str(path)) == []


def test_names_resolve_check_catches_a_missing_import():
    source = (
        "def cmd_a():\n"
        "    from json import dumps\n"
        "    return dumps([])\n"
        "def cmd_b():\n"
        "    return [dumps(x) for x in ()], len(())\n"
    )
    names = {name for _, name in unresolved_names(source, "cli.py")}
    assert names == {"dumps"}
