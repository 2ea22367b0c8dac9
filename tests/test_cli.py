import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import toughcert.verify
from toughcert import (
    ThresholdResult,
    certify,
    from_edges,
    is_connected,
    parse_graph6,
    spectral,
    threshold,
    to_graph6,
)
import toughcert.cli
from toughcert.cli import run
from toughcert.thresholds import build_extremal


@pytest.fixture(scope="module")
def bench_records():
    """Graph6 records of the benchmark's seed-1 certify inputs, keyed by
    (workload, t), from the generator in ``perfbench/gen.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return {
        (workload, t): [item["graph6"] for item in items]
        for workload in ("certify-small", "certify-large")
        for t, items in gen.generate(workload, 1).items()
    }


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


def test_threshold_json_bracket_is_exact(capsys):
    # the bracket ends are adjacent floats; 12 digits would print them
    # as one number
    assert run(["threshold", "--t", "2", "--n", "8", "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    res = threshold(2, 8)
    assert tuple(rec["bracket"]) == res.bracket
    assert rec["bracket"][0] < rec["bracket"][1]
    assert rec["threshold"] == res.value


def test_threshold_large_order(capsys):
    # roots above 512 sit where adjacent floats are more than 1e-13
    # apart; the exact isolator still ends on adjacent floats
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


def test_benchmark_records_are_canonical_graph6(bench_records):
    # strict parsing accepts one encoding per graph, so certify can
    # report the record it read instead of encoding the graph again
    for key, records in bench_records.items():
        for s in records:
            assert to_graph6(parse_graph6(s)) == s, (key, s)


@pytest.mark.parametrize("workload", ["certify-small", "certify-large"])
def test_certify_output_equals_reencoded_reports(bench_records, workload, tmp_path, capsys):
    for t in (1, 2, 3):
        records = bench_records[workload, t]
        path = tmp_path / f"t{t}.g6"
        path.write_text("".join(s + "\n" for s in records), encoding="ascii")
        assert run(["certify", "--t", str(t), "--file", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        expected = [
            json.dumps(certify(parse_graph6(s), t).to_dict(), sort_keys=True)
            for s in records
        ]
        assert lines == expected


def _relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _squaring_stream(rng, t):
    """200 connected certify inputs of orders 24-62: G(n, p) with p in
    0.05-0.99 over a random spanning tree, the sharpness example, and
    the sharpness example with one pair toggled."""
    graphs = []
    for _ in range(170):
        n, p = rng.randint(24, 62), rng.uniform(0.05, 0.99)
        order = rng.sample(range(n), n)
        edges = {(order[i], order[rng.randrange(i)]) for i in range(1, n)}
        edges |= {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
        graphs.append(from_edges(n, edges))
    for _ in range(10):
        graphs.append(_relabeled(build_extremal(t, rng.randint(24, 62)), rng))
    while len(graphs) < 200:
        g = build_extremal(t, rng.randint(24, 62))
        u, v = sorted(rng.sample(range(g.n), 2))
        h = from_edges(g.n, set(g.edges()) ^ {(u, v)})
        if is_connected(h):
            graphs.append(_relabeled(h, rng))
    return [to_graph6(g) for g in graphs]


def test_squaring_solver_leaves_every_report_byte_identical(tmp_path, capsys, monkeypatch, lapack_calls):
    # the same runs with the squaring window emptied give eigvalsh's
    # value for every radius; the bytes must not move, and at most 2% of
    # the certify records may reach eigvalsh while the window is open
    rng = random.Random(97)
    paths = {}
    for t in (1, 2, 3):
        paths[t] = tmp_path / f"t{t}.g6"
        paths[t].write_text("".join(s + "\n" for s in _squaring_stream(rng, t)), encoding="ascii")

    def outputs():
        out = {}
        for t, path in paths.items():
            assert run(["certify", "--t", str(t), "--file", str(path)]) == 0
            out["certify", t] = capsys.readouterr().out
        reached = len(lapack_calls)
        for t, path in paths.items():
            assert run(["spectral-radius", "--file", str(path)]) == 0
            out["spectral-radius", t] = capsys.readouterr().out
        for n in (100, 150):
            for t in (1, 2, 3):
                assert run(["extremal", "--n", str(n), "--t", str(t), "--format", "json"]) == 0
                out["extremal", n, t] = capsys.readouterr().out
        return out, reached

    squared, reached = outputs()
    assert sum(squared["certify", t].count("\n") for t in paths) == 600
    assert reached <= 0.02 * 600, reached
    monkeypatch.setattr(spectral, "_SQUARING_ORDERS", range(0))
    assert outputs()[0] == squared


def test_certify_conflicting_cross_check_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["certify", "--t", "1", "--cross-check", "--no-cross-check", "C{"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_certify_negative_epsilon_exit_3(capsys):
    assert run(["certify", "--t", "1", "--epsilon", "-0.5", "C~"]) == 3
    assert "epsilon" in capsys.readouterr().err


def test_certify_non_finite_epsilon_exit_3(capsys):
    # an infinite epsilon would print as Infinity, which is not JSON
    for value in ("inf", "1e400", "nan"):
        assert run(["certify", "--t", "1", "--epsilon", value, "E?Bw"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "epsilon must be finite and nonnegative" in captured.err


def test_verify_theorem_bad_tolerance_exit_3(capsys):
    for flag, value in (("--eps-strict", "nan"), ("--eps-eq", "-1"), ("--eps-eq", "inf")):
        assert run(["verify-theorem", "--n", "6", "--t", "1", flag, value]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite and nonnegative" in captured.err


def test_verify_theorem_bad_workers_exit_3(capsys):
    assert run(["verify-theorem", "--n", "5", "--t", "1", "--workers", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "workers" in captured.err


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


def test_stdin_non_ascii_byte_reports_its_value(capsys, monkeypatch):
    # the text layer of a C-locale stdin turns byte 0xc8 into U+DCC8
    stdin = io.TextIOWrapper(
        io.BytesIO(b"A_\n\xc8\n"), encoding="utf-8", errors="surrogateescape"
    )
    monkeypatch.setattr("sys.stdin", stdin)
    assert run(["spectral-radius", "-"]) == 2
    out = capsys.readouterr()
    assert out.out == "A_\t1\n"
    assert "line 2" in out.err and "byte 200" in out.err


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


def test_verify_theorem_cli_writes_each_order_before_the_next_scan(capsys, monkeypatch):
    # a reader sees each order's report as soon as that order is done
    events = []
    scan, write = toughcert.cli.verify_theorem, toughcert.cli.write_report

    def scanning(n, *args, **kwargs):
        events.append(f"scan {n}")
        return scan(n, *args, **kwargs)

    def writing(summary, stream):
        events.append("write")
        write(summary, stream)

    monkeypatch.setattr(toughcert.cli, "verify_theorem", scanning)
    monkeypatch.setattr(toughcert.cli, "write_report", writing)
    assert run(["verify-theorem", "--t", "1", "--n", "3", "--n-max", "5"]) == 0
    assert events == ["scan 3", "write", "scan 4", "write", "scan 5", "write"]
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == ["n=3 t=1", "n=4 t=1", "n=5 t=1"]


def test_verify_theorem_cli_range_past_the_scan_cap_scans_nothing(tmp_path, capsys, monkeypatch):
    # every order of the range is checked before the first scan, so a
    # range that ends past the cap writes nothing, not even its --output
    def refuse(args):
        raise AssertionError("scanned before the range was checked")

    monkeypatch.setattr(toughcert.verify, "_scan_chunk", refuse)
    out_path = tmp_path / "report.jsonl"
    for output in ([], ["--output", str(out_path)]):
        assert run(["verify-theorem", "--n", "6", "--n-max", "9", "--t", "4", *output]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "order 9 exceeds the scan cap 8" in captured.err
    assert not out_path.exists()


def test_verify_theorem_cli_failure_exit_1(capsys, monkeypatch):
    # a threshold far below the true one puts non-tough graphs above it,
    # so the run must report failures and exit 1
    monkeypatch.setattr(
        toughcert.verify, "threshold", lambda t, n: ThresholdResult(t, n, 1.0, (1.0, 1.0))
    )
    code = run(["verify-theorem", "--t", "1", "--n", "4"])
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


@pytest.mark.parametrize("argv", [
    ["--suite", "quotient", "--q-n-max", "2"],
    ["--suite", "identities", "--i-n-max", "2"],
    ["--suite", "maximizer", "--n-max", "3"],
    ["--suite", "maximizer", "--s-max", "0"],
])
def test_verify_lemmas_empty_grid_exit_3(argv, capsys):
    assert run(["verify-lemmas", *argv]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:")


def _fresh_process(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter that imports this tree's
    package."""
    src = str(Path(toughcert.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_one_parser_serves_every_call_as_a_fresh_process_would(capsys):
    # the parser is built once per process; a call after a parse error or
    # an argparse exit must print and exit as it would in a new process
    calls = [
        ["threshold", "--t", "2", "--n", "8"],
        ["certify", "--t", "1", "@@@"],
        ["verify-theorem", "--n", "5"],
        ["verify-theorem", "--n", "5", "--t", "1"],
    ]
    codes = []
    for argv in calls:
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        fresh = _fresh_process("-m", "toughcert", *argv)
        assert (out, code) == (fresh.stdout, fresh.returncode), argv
        codes.append(code)
    assert codes == [0, 2, 2, 0]
    assert toughcert.cli._build_parser() is toughcert.cli._build_parser()


def test_importing_the_cli_loads_no_multiprocessing():
    # a serial run never forks, so multiprocessing is imported with the
    # first pool, not with the package
    probe = "import sys, toughcert.cli; print('multiprocessing' in sys.modules)"
    assert _fresh_process("-c", probe).stdout.strip() == "False"
