import json

import pytest

from mcgcalc import Basis, kernel_backend, parse_word
from mcgcalc.cli import main


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
