"""CLI surface: subcommands, exit codes, report files."""

import json

import pytest

from ikernel.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "lemma-infini2" in out
    assert len(out.strip().splitlines()) == 9


def test_run_text_and_exit_code(capsys):
    code = main(
        ["run", "--scenario", "g2-invariants-A", "--n", "1", "--m", "1", "--max-degree", "4"]
    )
    assert code == 0
    assert "verdict: pass" in capsys.readouterr().out


def test_run_json_report_and_verify(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(
        [
            "run",
            "--scenario",
            "g1-integrality-dichotomy",
            "--n",
            "1",
            "--m",
            "1",
            "--max-degree",
            "6",
            "--bound",
            "relation_degree=5",
            "--output",
            "json",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    data = json.loads(path.read_text())
    assert data["schema"] == 1
    assert data["verdict"] == "pass"
    capsys.readouterr()

    assert main(["verify", str(path)]) == 0
    assert "all re-evaluate exactly" in capsys.readouterr().out

    data["details"]["algebraic"]["coefficients"][0]["polynomial"] = "y1^2"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 1


def test_membership_exit_codes(capsys):
    assert main(["membership", "--algebra", "anm", "--poly", "x1^2*y1"]) == 0
    assert "y1*t1 - z*x1y1" in capsys.readouterr().out
    assert main(["membership", "--algebra", "anm", "--poly", "x1"]) == 1
    capsys.readouterr()
    assert main(["membership", "--algebra", "monomial", "--poly", "x1^3*y1"]) == 0
    assert main(["membership", "--algebra", "monomial", "--poly", "x1^3"]) == 1


def test_membership_json_output(capsys):
    assert main(["membership", "--poly", "z^2", "--output", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cert_type"] == "membership"
    assert data["target"] == "z^2"


def test_none_up_to_bound_exit_code(monkeypatch, capsys):
    from ikernel import harness

    def stub(cfg):
        return harness.NONE_UP_TO_BOUND, {"power_bound": cfg.bound("max_power")}

    monkeypatch.setitem(
        harness.SCENARIOS, "localization-smoothness", (stub, "stubbed")
    )
    code = main(["run", "--scenario", "localization-smoothness", "--bound", "max_power=1"])
    assert code == 2
    assert "none-up-to-bound" in capsys.readouterr().out


def test_run_json_to_stdout(capsys):
    assert main(["run", "--scenario", "g2-invariants-A", "--max-degree", "3",
                 "--output", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "pass" and data["schema"] == 1


def test_usage_errors(capsys):
    assert main(["run", "--scenario", "nope"]) == 3
    assert main(["run"]) == 3
    assert main(["frobnicate"]) == 3
    assert main(["membership", "--poly", "q + 1"]) == 3
    assert main(["run", "--scenario", "lemma-infini", "--bound", "relation_degree"]) == 3
    assert main(["verify", "/no/such/file.json"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("text", ["[]", '"x"', "3"])
def test_verify_rejects_non_object_report(tmp_path, capsys, text):
    path = tmp_path / "report.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 3
    assert "not a JSON object" in capsys.readouterr().err
