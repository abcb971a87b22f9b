import ast
import inspect
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from conftest import SRC, other_python
from test_kernel_parity import FUZZ_ARGVS, OTHER_PYTHONS

from mcgcalc import (
    Basis,
    ImageBudgetError,
    kernel_backend,
    parse_word,
    pillar_switching_action,
    pillar_switching_inverse,
    product,
)
from mcgcalc.cli import _build_parser, _command_parser, _parse_request, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- act ---------------------------------------------------------------------


def test_act_sigma0_on_y1(capsys):
    code, out, _ = run(capsys, "act", "sigma", "0", "--genus", "2", "--on", "y1")
    assert code == 0
    assert out.strip() == "y2 x2^-1 y2^-1 x1 y1^-1 x1^-1 y2 x2 y2^-1"


def test_act_twist_word_fixes_x1(capsys):
    code, out, _ = run(capsys, "act", "twist-word", "a1", "--genus", "2", "--on", "x1")
    assert code == 0
    assert out.strip() == "x1"


def test_act_trivial_braid_image(capsys):
    code, out, _ = run(
        capsys, "act", "braid-psi", "b1 b1^-1", "--genus", "2", "--on", "x1 y1"
    )
    assert code == 0
    assert out.strip() == "x1 y1"


def test_act_braid_psi_is_decided_on_the_reduced_word_within_the_budget(capsys):
    # typed as it stands, sigma_1 sigma_1^-1 sigma_1 needs 51 letters at
    # genus 2; freely reduced to sigma_1, as psi_action evaluates it, 14
    sigma1, inverse = pillar_switching_action(1, 2), pillar_switching_inverse(1, 2)
    with pytest.raises(ImageBudgetError):
        product(Basis.xy(2), [sigma1, inverse, sigma1], budget=20)
    code, out, err = run(
        capsys, "act", "braid-psi", "b1 b1^-1 b1", "--genus", "2", "--on", "x1 y1",
        "--budget", "20",
    )
    assert (code, err) == (0, "")
    assert out == run(capsys, "act", "sigma", "1", "--genus", "2", "--on", "x1 y1")[1]


def test_act_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "act", "twist-word", "q1", "--genus", "2", "--on", "x1")
    assert code == 2
    assert "bad twist token" in err


def test_act_bad_sigma_index_exits_2(capsys):
    code, _, err = run(capsys, "act", "sigma", "5", "--genus", "2", "--on", "x1")
    assert code == 2


# --- braid-trivial ------------------------------------------------------------


def test_braid_trivial_relator(capsys):
    code, out, _ = run(
        capsys, "braid-trivial", "--strands", "3", "b1 b2 b1 b2^-1 b1^-1 b2^-1"
    )
    assert code == 0
    assert out.strip() == "trivial"


def test_braid_nontrivial(capsys):
    code, out, _ = run(capsys, "braid-trivial", "--strands", "3", "b1")
    assert code == 1
    assert out.strip() == "nontrivial"


# A nontrivial 50-letter braid on 3 strands, drawn by the benchmark's input
# generator (perfbench/inputs.py, braid_pairs(1517, 0)). Typed as it stands,
# its Artin image passes the default budget (12,728,385 letters); freely
# reduced, as artin_action evaluates it, it fits.
BRAID_1517 = (
    "b1 b1^-1 b1 b1 b2 b1^-1 b2 b1^-1 b1^-1 b2 b1^-1 b1 b1 b1^-1 b2 b1^-1 b1 b1 "
    "b2^-1 b1 b1 b2^-1 b2^-1 b1 b2^-1 b1^-1 b1^-1 b2 b2 b2 b1^-1 b2 b1^-1 b2^-1 "
    "b2^-1 b2^-1 b2^-1 b1^-1 b2 b1^-1 b1^-1 b2 b2 b1^-1 b1^-1 b1 b2 b1^-1 b2^-1 b2"
)


def test_braid_with_cancelling_pairs_is_decided_within_the_budget(capsys):
    assert len(BRAID_1517.split()) == 50
    code, out, err = run(capsys, "braid-trivial", "--strands", "3", BRAID_1517)
    assert (code, out.strip(), err) == (1, "nontrivial", "")


def test_braid_trivial_usage_error(capsys):
    code, _, err = run(capsys, "braid-trivial", "--strands", "2", "b2")
    assert code == 2
    assert "out of range" in err


# --- export ---------------------------------------------------------------------


def test_export_sigma_json(capsys):
    code, out, _ = run(capsys, "export", "sigma", "1", "--genus", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == {"kind": "xy", "genus_or_rank": 2}
    assert sorted(payload["images"]) == ["x1", "x2", "y1", "y2"]
    basis = Basis.xy(2)
    for text in payload["images"].values():
        parse_word(text, basis)  # must be valid word text
    assert payload["images"]["y1"] == "y1 y2"


def test_export_json_is_pinned(capsys):
    code, out, _ = run(capsys, "export", "twist-word", "a1 b2^-1 w1", "--genus", "2", "--json")
    assert code == 0
    assert out == """\
{
  "basis": {
    "genus_or_rank": 2,
    "kind": "xy"
  },
  "images": {
    "x1": "y2 y2 x2^-1 y2^-1 x1 y2 x2 y2^-1 y2^-1",
    "x2": "x2 y2^-1",
    "y1": "y1 x1^-1 x1^-1 y2 x2 y2^-1 y2^-1",
    "y2": "y2 y2 x2^-1 y2^-1 x1 y2"
  }
}
"""


def test_export_twist_word_composed(capsys):
    code, out, _ = run(capsys, "export", "twist-word", "a1 b1", "--genus", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    # b1 acts first: x1 -> x1 y1 -> x1 y1 x1^-1
    assert payload["images"]["x1"] == "x1 y1 x1^-1"


def test_export_text_format(capsys):
    code, out, _ = run(capsys, "export", "sigma", "1", "--genus", "2")
    assert code == 0
    assert "y1 -> y1 y2" in out


def test_export_sigma_rejects_genus_1(capsys):
    code, _, err = run(capsys, "export", "sigma", "0", "--genus", "1", "--json")
    assert code == 2


# --- verify ----------------------------------------------------------------------


def test_verify_thm22_single_genus(capsys):
    code, out, _ = run(capsys, "verify", "--genus", "3", "--which", "thm22")
    assert code == 0
    assert "thm-2.2-case-1-sigma0" in out
    assert "all passed" in out


def test_verify_all_small_range(capsys):
    code, out, _ = run(capsys, "verify", "--genus", "2..3", "--all", "--seed", "1")
    assert code == 0
    assert "all passed" in out


def test_verify_json_output(capsys):
    code, out, _ = run(
        capsys, "verify", "--genus", "2", "--which", "thm22,relator", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    kinds = {entry["which"] for entry in payload["results"]}
    assert kinds == {"thm22", "relator"}


def test_verify_json_names_the_kernel(capsys):
    code, out, _ = run(capsys, "verify", "--genus", "2", "--which", "relator", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kernel"] == kernel_backend() in ("py", "c")
    assert set(payload) == {"kernel", "ok", "results", "seed"}


def test_verify_json_records_the_seed(capsys):
    payloads = {}
    for seed in (0, 7):
        argv = ("verify", "--genus", "2", "--which", "yz-roundtrip", "--json", "--seed", str(seed))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        payloads[seed] = json.loads(out)
        assert payloads[seed]["seed"] == seed
    # the seed is the only difference: kernel, ok and results stay as they were
    del payloads[0]["seed"], payloads[7]["seed"]
    assert payloads[0] == payloads[7]


def test_verify_genus_1_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--genus", "1", "--which", "thm22"])
    assert excinfo.value.code == 2


def test_verify_unknown_check_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--genus", "2", "--which", "nope"])
    assert excinfo.value.code == 2


def test_verify_bad_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--genus", "5..2", "--which", "thm22"])
    assert excinfo.value.code == 2


def test_verify_output_independent_of_jobs(capsys):
    outputs = {
        run(capsys, "verify", "--all", "--genus", "2..4", "--json", "--jobs", jobs)
        for jobs in ("1", "2", "4")
    }
    assert len(outputs) == 1
    code, out, err = outputs.pop()
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["ok"] is True
    order = list(dict.fromkeys(entry["which"] for entry in payload["results"]))
    assert order == [
        "thm22", "chains", "relations", "relator", "artin-restriction", "yz-roundtrip"
    ]


def test_verify_jobs_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--genus", "2", "--which", "thm22", "--jobs", "0"])
    assert excinfo.value.code == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["act", "braid-psi", "b1 b1 b1 b1", "--genus", "2", "--on", "x1"],
        ["export", "braid-psi", "b1 b1 b1 b1", "--genus", "2"],
        ["braid-trivial", "b1 b1 b1 b1", "--strands", "3"],
        ["verify", "--genus", "2..3", "--which", "thm22", "--jobs", "2"],
    ],
    ids=["act", "export", "braid-trivial", "verify"],
)
def test_budget_flag_propagates(capsys, argv):
    code, _, err = run(capsys, *argv, "--budget", "2")
    assert code == 2
    assert "budget" in err


def test_budget_does_not_reach_the_basis_change(capsys):
    # yz-roundtrip is a fixed substitution and takes no budget.
    code, out, err = run(
        capsys, "verify", "--genus", "2..3", "--which", "yz-roundtrip", "--budget", "2"
    )
    assert code == 0, err
    assert "all passed" in out


def test_budget_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["braid-trivial", "b1", "--strands", "3", "--budget", "0"])
    assert excinfo.value.code == 2


def _out_of_memory(*args, **kwargs):
    raise MemoryError


# Running out of memory is no verdict: exit 2 and one line on stderr, never 1.
@pytest.mark.parametrize(
    "target, argv",
    [
        ("is_trivial_braid", ["braid-trivial", "b1", "--strands", "3"]),
        ("verify_relator_invariance", ["verify", "--genus", "2", "--which", "relator"]),
    ],
    ids=["braid-trivial", "verify"],
)
def test_out_of_memory_exits_2_without_a_verdict(capsys, monkeypatch, target, argv):
    monkeypatch.setattr(f"mcgcalc.cli.{target}", _out_of_memory)
    assert run(capsys, *argv) == (2, "", "error: out of memory\n")


# --- usage errors found after parsing ---------------------------------------------

VERIFY_USAGE = (
    "usage: mcgcalc verify [-h] --genus G[..H] [--which CHECKS] [--all] [--json]"
    " [--jobs N] [--seed N] [--budget N]"
)
ACT_USAGE = (
    "usage: mcgcalc act [-h] --genus GENUS --on WORD [--budget N]"
    " {twist-word,sigma,braid-psi} spec"
)
BRAID_USAGE = "usage: mcgcalc braid-trivial [-h] --strands STRANDS [--budget N] word"


@pytest.mark.parametrize(
    "argv, usage, message",
    [
        (
            ["braid-trivial", "b1", "--strands", "3", "--budget", "0"],
            BRAID_USAGE,
            "mcgcalc braid-trivial: error: --budget must be >= 1",
        ),
        (
            ["verify", "--genus", "2", "--which", "thm22", "--jobs", "0"],
            VERIFY_USAGE,
            "mcgcalc verify: error: --jobs must be >= 1",
        ),
        (
            ["verify", "--genus", "1", "--which", "thm22"],
            VERIFY_USAGE,
            "mcgcalc verify: error: verification checks need genus >= 2",
        ),
        (
            ["verify", "--genus", "2", "--which", "thm22,nope"],
            VERIFY_USAGE,
            "mcgcalc verify: error: unknown check 'nope' (choose from thm22, chains,"
            " relations, relator, artin-restriction, yz-roundtrip)",
        ),
        (
            ["act", "sigma", "x", "--genus", "2", "--on", "x1"],
            ACT_USAGE,
            "mcgcalc act: error: sigma expects an integer index, got 'x'",
        ),
    ],
    ids=["budget", "jobs", "genus", "which", "sigma"],
)
def test_usage_error_prints_the_subcommand_usage(capsys, monkeypatch, argv, usage, message):
    monkeypatch.setenv("COLUMNS", "200")  # one usage line, whatever the terminal
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{usage}\n{message}\n"


# --- many requests in one process ---------------------------------------------------


# Prints the exit code of a well-formed braid-trivial request, then how many
# top-level and command parsers it built, and that count again after asking
# for braid-trivial's parser: one more build would mean it built another's.
FRESH_REQUEST = """\
from mcgcalc.cli import _build_parser, _command_parser, main
code = main(["braid-trivial", "b1", "--strands", "3"])
built = _command_parser.cache_info().misses
_command_parser("braid-trivial")
print(code, _build_parser.cache_info().misses, built, _command_parser.cache_info().misses)
"""


def test_parser_is_built_once_per_process(capsys):
    for argv in [
        ["verify", "--genus", "2", "--which", "relator"],
        ["braid-trivial", "b1", "--strands", "3"],
        ["act", "sigma", "0", "--genus", "2", "--on", "y1"],
        ["export", "sigma", "1", "--genus", "2"],
    ] * 2:
        main(argv)
    info = _command_parser.cache_info()
    assert info.currsize == 4 and info.misses == info.currsize
    assert _build_parser.cache_info().misses <= 1
    # a well-formed request builds its command's parser and not the top-level one
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_REQUEST],
        capture_output=True,
        text=True,
        env=dict(os.environ, MCGCALC_KERNEL="py", PYTHONPATH=os.pathsep.join(path)),
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "nontrivial\n1 0 1 1\n", "")


def test_repeated_requests_are_independent(capsys):
    argv = ("verify", "--genus", "2", "--which", "thm22", "--json")
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first == second
    assert {entry["which"] for entry in json.loads(first[1])["results"]} == {"thm22"}


def test_usage_error_leaves_the_next_request_intact(capsys):
    expected = run(capsys, "act", "sigma", "0", "--genus", "2", "--on", "y1")
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--genus", "2", "--which", "thm22", "--jobs", "0"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    assert run(capsys, "act", "sigma", "0", "--genus", "2", "--on", "y1") == expected
    assert expected[0] == 0 and expected[2] == ""


def test_help_is_the_same_on_every_call(capsys):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--help"])
        assert excinfo.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith("usage: mcgcalc verify [-h]")


# --- the top-level parser --------------------------------------------------------------

TOP_USAGE = "usage: mcgcalc [-h] {verify,act,export,braid-trivial} ..."
TOP_HELP = (
    f"{TOP_USAGE}\n"
    "\n"
    "Pillar switchings, Dehn-twist factorizations and the Artin representation,"
    " verified as exact free-group identities.\n"
    "\n"
    "positional arguments:\n"
    "  {verify,act,export,braid-trivial}\n"
    "    verify              run certification checks\n"
    "    act                 apply a mapping class to a word\n"
    "    export              print a mapping class's images\n"
    "    braid-trivial       decide the braid word problem\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
)


def top_level_error(message):
    return f"{TOP_USAGE}\nmcgcalc: error: {message}\n"


def unknown_command(token):
    """The error for an unknown command ``token`` in both of argparse's
    wordings: CPython 3.11.7 quotes the choices, 3.13.13 lists them bare."""
    return tuple(
        top_level_error(f"argument command: invalid choice: {token!r} (choose from {choices})")
        for choices in (
            "'verify', 'act', 'export', 'braid-trivial'",
            "verify, act, export, braid-trivial",
        )
    )


BRAID_B1 = ["braid-trivial", "b1", "--strands", "3"]
# argv, exit code, stdout, and the stderr texts accepted
TOP_LEVEL = {
    "no-arguments": (
        [], 2, "", (top_level_error("the following arguments are required: command"),)
    ),
    "-h": (["-h"], 0, TOP_HELP, ("",)),
    "--help": (["--help"], 0, TOP_HELP, ("",)),
    "unknown-command": (["nope"], 2, "", unknown_command("nope")),
    "option-before-command": (["--budget", "3", *BRAID_B1], 2, "", unknown_command("3")),
    "unknown-option-after-command": (
        [*BRAID_B1, "--bogus"], 2, "", (top_level_error("unrecognized arguments: --bogus"),)
    ),
    "second-positional": (
        ["braid-trivial", "b1", "b2", "--strands", "3"],
        2,
        "",
        (top_level_error("unrecognized arguments: b2"),),
    ),
    "double-dash-before-positional": (
        ["braid-trivial", "--strands", "3", "--", "b1"], 1, "nontrivial\n", ("",)
    ),
    "abbreviated-option": (["braid-trivial", "b1", "--str", "3"], 1, "nontrivial\n", ("",)),
    "option-with-equals": (["braid-trivial", "b1", "--strands=3"], 1, "nontrivial\n", ("",)),
}


@pytest.mark.parametrize(
    "argv, code, out, errs", TOP_LEVEL.values(), ids=TOP_LEVEL.keys()
)
def test_top_level_requests_print_what_they_printed(capsys, monkeypatch, argv, code, out, errs):
    monkeypatch.setenv("COLUMNS", "200")  # one usage line, whatever the terminal
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.out) == (code, out)
    assert captured.err in errs


def parse_outcomes(argv):
    """What ``_parse_request(argv)`` and the top-level parser's
    ``parse_args(argv)`` give, each as plain values with what it printed:
    the namespace's items but ``command``, with the subparser by its prog and
    the command function by its name, or the code of the SystemExit raised."""
    outcomes = []
    for parse in (_parse_request, _build_parser().parse_args):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                args = parse(argv)
            except SystemExit as exc:
                result = exc.code
            else:
                items = dict(vars(args), subparser=args.subparser.prog, func=args.func.__name__)
                items.pop("command", None)
                result = repr(sorted(items.items()))
        outcomes.append((result, out.getvalue(), err.getvalue()))
    return tuple(outcomes)


# The generated requests of the kernel parity sweep, the top-level cases
# above, and help and errors of one command.
PARSE_ARGVS = FUZZ_ARGVS + [argv for argv, *_ in TOP_LEVEL.values()] + [
    ["verify", "-h"],
    ["act", "--help"],
    ["export", "-h"],
    ["braid-trivial", "-h"],
    ["verify"],
    ["export", "sigma"],
    ["braid-trivial", "b1", "--strands", "3", "-h"],
    ["--", "braid-trivial", "b1", "--strands", "3"],
    ["braid-trivial", "--", "-b1", "--strands", "3"],
    ["verify", "--genus", "2", "--which", "thm22", "--which", "relator", "--jobs", "-1"],
]


def test_each_command_parses_as_under_the_top_level_parser(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    outcomes = [parse_outcomes(argv) for argv in PARSE_ARGVS]
    for argv, (dispatched, full) in zip(PARSE_ARGVS, outcomes):
        assert dispatched == full, argv
    # the sweep reaches namespaces, usage errors and help alike
    assert {type(result) for (result, _, _), _ in outcomes} == {str, int}
    assert {result for (result, _, _), _ in outcomes if type(result) is int} == {0, 2}


# Prints the parse outcomes of every argv read from stdin.
PARSE_IN_ANOTHER_PYTHON = f"""\
import ast, io, sys
from contextlib import redirect_stderr, redirect_stdout
from mcgcalc.cli import _build_parser, _parse_request
{inspect.getsource(parse_outcomes)}
print(repr([parse_outcomes(argv) for argv in ast.literal_eval(sys.stdin.read())]))
"""


# The dispatch repeats what argparse's subparsers action does, and that code
# differs between CPython versions.
@pytest.mark.parametrize(
    "version", sorted(OTHER_PYTHONS, key=lambda v: int(v.split(".")[1])) or [None]
)
def test_each_command_parses_as_under_the_top_level_parser_in_other_pythons(version):
    if version is None:
        pytest.skip("no python3.X-config for another CPython 3.10+ on PATH")
    python, why = other_python(OTHER_PYTHONS[version])
    if python is None:
        pytest.skip(f"no CPython {version} with its own headers: {why}")
    proc = subprocess.run(
        [python.interpreter, "-c", PARSE_IN_ANOTHER_PYTHON],
        input=repr(PARSE_ARGVS),
        capture_output=True,
        text=True,
        env=dict(os.environ, MCGCALC_KERNEL="py", PYTHONPATH=str(SRC), COLUMNS="200"),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    outcomes = ast.literal_eval(proc.stdout)
    assert len(outcomes) == len(PARSE_ARGVS)
    for argv, (dispatched, full) in zip(PARSE_ARGVS, outcomes):
        assert dispatched == full, argv
