import json

import pytest

from mcgcalc import Basis, kernel_backend, parse_word
from mcgcalc.cli import _build_parser, main


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
    assert set(payload) == {"kernel", "ok", "results"}


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


def test_parser_is_built_once_per_process(capsys):
    for argv in (
        ["braid-trivial", "b1", "--strands", "3"],
        ["act", "sigma", "0", "--genus", "2", "--on", "y1"],
        ["export", "sigma", "1", "--genus", "2"],
    ):
        main(argv)
    assert _build_parser.cache_info().misses == 1


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
