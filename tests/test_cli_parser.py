"""The one-command parser against the full one.

``main()`` builds only the subparser of the command it runs
(``build_parser(name)``); everything else gets every command
(``build_parser()``).  Users must not be able to tell the two apart:
help, usage and error text of the one-command build equal the full
build's byte for byte.  ``COLUMNS`` is pinned so argparse wraps the
same way however wide the terminal running the tests is.
"""

import argparse

import pytest

from repro.cli import COMMANDS, build_parser, main
from repro.figures import figure1_system
from repro.io import save

NAMES = [entry.name for entry in COMMANDS]

#: arguments that satisfy each command's required positionals and
#: options, so an unknown option after them reaches the top-level parser
MINIMAL = {
    "check": ["f.json"],
    "lint": ["f.json"],
    "info": ["f.json"],
    "render": ["f.json"],
    "generate": ["-o", "f.json"],
    "experiment": ["t1"],
    "compare": ["a.json", "b.json"],
    "profile": ["t.jsonl"],
    "eventlog": ["f.json", "log.jsonl"],
    "watch": ["log.jsonl"],
    "resume": ["ck.json"],
}


@pytest.fixture(autouse=True)
def pinned_columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def outcome(parse, argv, capsys):
    """``(exit status, stdout, stderr)`` of parsing ``argv``; a parse
    that succeeds reports its namespace as status ``None``."""
    try:
        namespace = parse(argv)
    except SystemExit as stop:
        status = stop.code
    else:
        status = None
        print(sorted(vars(namespace).items(), key=str))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def both(argv, capsys):
    """The outcome of ``argv`` under the one-command and full builds."""
    one = outcome(build_parser(argv[0]).parse_args, argv, capsys)
    full = outcome(build_parser().parse_args, argv, capsys)
    return one, full


def test_table_lists_every_command_once():
    assert len(NAMES) == len(set(NAMES)) == 15
    assert NAMES[:2] == ["check", "lint"]


def test_full_build_registers_the_table_in_order(capsys):
    status, out, _ = outcome(build_parser().parse_args, ["--help"], capsys)
    assert status == 0
    assert "{" + ",".join(NAMES) + "}" in out
    listed = [
        line.split()[0]
        for line in out.splitlines()
        if line.startswith("    ") and line.split()[0] in NAMES
    ]
    assert listed == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_help_is_identical(name, capsys):
    one, full = both([name, "--help"], capsys)
    assert one == full
    assert one[0] == 0 and one[1].startswith(f"usage: repro {name} ")


@pytest.mark.parametrize("name", NAMES)
def test_missing_arguments_are_identical(name, capsys):
    # parsing only: a command without required arguments yields a
    # namespace here, and is never run
    one, full = both([name], capsys)
    assert one == full


@pytest.mark.parametrize("name", NAMES)
def test_unknown_option_is_identical(name, capsys):
    argv = [name] + MINIMAL.get(name, []) + ["--zzz"]
    one, full = both(argv, capsys)
    assert one == full
    status, _, err = one
    assert status == 2
    # rejected by the top-level parser, whose usage lists every command
    assert err.startswith("usage: repro [-h]")
    assert "{" + ",".join(NAMES) + "}" in err
    assert err.endswith("repro: error: unrecognized arguments: --zzz\n")


def test_unnamed_commands_build_the_full_parser(capsys):
    for argv in (["chek"], ["--help"], ["-h", "check"]):
        assert outcome(build_parser(argv[0]).parse_args, argv, capsys) == (
            outcome(build_parser().parse_args, argv, capsys)
        )


def test_bare_repro(capsys):
    status, out, err = outcome(main, [], capsys)
    assert (status, out) == (2, "")
    assert err.endswith(
        "repro: error: the following arguments are required: command\n"
    )


def test_repro_help(capsys):
    status, out, err = outcome(main, ["--help"], capsys)
    assert (status, err) == (0, "")
    assert out == build_parser().format_help()


def test_unknown_command(capsys):
    status, out, err = outcome(main, ["bogus"], capsys)
    assert (status, out) == (2, "")
    # "argument command", not a pinned metavar, names the argument
    assert "repro: error: argument command: invalid choice: 'bogus'" in err
    assert all(name in err.splitlines()[-1] for name in NAMES)


def test_check_builds_one_subparser(tmp_path, monkeypatch, capsys):
    document = tmp_path / "fig1.json"
    save(figure1_system(), document)
    calls = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        calls.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert main(["check", str(document)]) == 0
    assert calls == ["check"]
    assert "ACCEPTED" in capsys.readouterr().out
