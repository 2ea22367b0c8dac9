import io
import json

import pytest

from toughcert import from_edges, to_graph6
from toughcert.cli import run


def test_threshold_plain(capsys):
    assert run(["threshold", "--t", "1", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "threshold(t=1, n=4) = 2.17008648663" in out
    assert "cubic:" in out


def test_threshold_json(capsys):
    assert run(["threshold", "--t", "2", "--n", "8", "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["t"] == 2 and rec["n"] == 8
    assert abs(rec["threshold"] - 5.069517991916) <= 1e-9
    assert rec["coefficients"] == [1.0, -4.0, -7.0, 8.0]
    assert rec["bracket"][0] <= rec["threshold"] <= rec["bracket"][1]


def test_threshold_large_order(capsys):
    # roots above 512 sit where adjacent floats are wider than the
    # bisection width
    assert run(["threshold", "--t", "2", "--n", "600"]) == 0
    assert "threshold(t=2, n=600) = 597.000005602" in capsys.readouterr().out


def test_threshold_residual_gate_at_large_order(capsys):
    assert run(["threshold", "--t", "1", "--n", "1067"]) == 0
    assert "threshold(t=1, n=1067) = 1065.00000088" in capsys.readouterr().out


def test_threshold_domain_error_exit_3(capsys):
    assert run(["threshold", "--t", "3", "--n", "4"]) == 3
    assert "error:" in capsys.readouterr().err


def test_extremal(capsys):
    assert run(["extremal", "--t", "2", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "graph6: Cs" in out
    assert "lambda1: 1.73205080757" in out
    assert "toughness: 1/3" in out


def test_extremal_json(capsys):
    assert run(["extremal", "--t", "1", "--n", "4", "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["graph6"] == "C{"
    assert rec["toughness"] == "1/2"
    assert abs(rec["lambda1"] - rec["threshold"]) <= 1e-9


def test_spectral_radius_single(capsys):
    assert run(["spectral-radius", "A_"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "A_\t1"


def test_spectral_radius_stdin_batch(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("A_\nBw\n\n"))
    assert run(["spectral-radius", "-"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["A_\t1", "Bw\t2"]


def test_spectral_radius_file_batch(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    path.write_text(">>graph6<<\nC{\n")
    assert run(["spectral-radius", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("C{\t2.17008648663")


def test_toughness_plain_and_json(capsys):
    assert run(["toughness", "C{"]) == 0
    assert capsys.readouterr().out.strip() == "C{\t1/2\twitness={0}"
    assert run(["toughness", "Bw"]) == 0
    assert capsys.readouterr().out.strip() == "Bw\tinfinite"
    assert run(["toughness", "C{", "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec == {
        "graph6": "C{",
        "infinite": False,
        "numerator": 1,
        "denominator": 2,
        "witness": [0],
    }


def test_certify_json_lines(capsys):
    assert run(["certify", "--t", "1", "C{"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["verdict"] == "exceptional"
    assert rec["cross_check"]["tough"] is False
    assert run(["certify", "--t", "1", "--no-cross-check", "C{"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["cross_check"] is None


def test_certify_conflicting_cross_check_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["certify", "--t", "1", "--cross-check", "--no-cross-check", "C{"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_certify_negative_epsilon_exit_3(capsys):
    assert run(["certify", "--t", "1", "--epsilon", "-0.5", "C~"]) == 3
    assert "epsilon" in capsys.readouterr().err


def test_bad_graph6_exit_2(capsys):
    assert run(["spectral-radius", "C"]) == 2
    err = capsys.readouterr().err
    assert "byte 1" in err
    assert run(["certify", "--t", "1", "@@@"]) == 2


def test_file_with_non_ascii_byte_exit_2(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    path.write_bytes(b"C{\nC\xc8\n")
    assert run(["certify", "--t", "1", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "byte 1" in err and "byte 200" in err


def test_missing_file_exit_3(tmp_path, capsys):
    assert run(["certify", "--t", "1", "--file", str(tmp_path / "none.g6")]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_directory_as_file_exit_3(tmp_path, capsys):
    assert run(["certify", "--t", "1", "--file", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_unwritable_output_exit_3(tmp_path, capsys):
    out_path = tmp_path / "no-such-dir" / "report.jsonl"
    assert run(["verify-theorem", "--t", "1", "--n", "4", "--output", str(out_path)]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_stdin_streams_records_before_a_bad_line(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("A_\n@@\nBw\n"))
    assert run(["spectral-radius", "-"]) == 2
    out = capsys.readouterr()
    assert out.out == "A_\t1\n"
    assert "line 2" in out.err


def test_disconnected_certify_exit_3(capsys):
    # 2K2: order 4, edges (0,1) and (2,3) only
    g6 = to_graph6(from_edges(4, [(0, 1), (2, 3)]))
    assert run(["certify", "--t", "1", g6]) == 3
    assert "error:" in capsys.readouterr().err


def test_empty_input_exit_3(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("\n\n"))
    assert run(["toughness", "-"]) == 3


def test_verify_theorem_cli(tmp_path, capsys):
    out_path = tmp_path / "report.jsonl"
    code = run([
        "verify-theorem", "--t", "1", "--n", "4", "--output", str(out_path)
    ])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    closing = json.loads(lines[-1])
    assert closing["record"] == "summary"
    assert closing["ok"] is True
    err = capsys.readouterr().err
    assert "n=4 t=1" in err


def test_verify_theorem_cli_range_stdout(capsys):
    assert run(["verify-theorem", "--t", "2", "--n", "4", "--n-max", "5"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    summaries = [json.loads(x) for x in out if json.loads(x)["record"] == "summary"]
    assert [s["scope"]["n"] for s in summaries] == [4, 5]


def test_verify_theorem_cli_failure_exit_1(capsys):
    # a negative equality tolerance makes the sharpness check
    # unsatisfiable, so the run must report failures and exit 1
    code = run([
        "verify-theorem", "--t", "1", "--n", "4", "--eps-eq", "-3"
    ])
    assert code == 1
    out = capsys.readouterr()
    assert any(
        json.loads(line)["record"] == "failure"
        for line in out.out.strip().splitlines()
    )


def test_verify_lemmas_cli(capsys):
    code = run([
        "verify-lemmas",
        "--suite", "monotonicity",
        "--trials", "30",
        "--seed", "7",
    ])
    assert code == 0
    out = capsys.readouterr()
    closing = json.loads(out.out.strip().splitlines()[-1])
    assert closing["check"] == "subgraph-monotonicity"
    assert closing["ok"] is True


def test_verify_lemmas_cli_identities(capsys):
    code = run([
        "verify-lemmas",
        "--suite", "identities",
        "--i-s-max", "2", "--i-t-max", "2", "--i-n-max", "12",
    ])
    assert code == 0
    closing = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert closing["check"] == "threshold-identities"
    assert closing["ok"] is True
