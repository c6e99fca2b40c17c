"""Command-line interface: output formats, config echo, exit codes."""

import csv
import dataclasses
import io
import json

import pytest

from hochhom import bar, cli, words


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_words_text_output(capsys):
    code, out, _ = run(["words", "--p", "3", "--n", "3", "--family", "B",
                        "--max-degree", "108"], capsys)
    assert code == 0
    assert "# command = words" in out
    assert "# count = 4" in out
    assert "r^0eu" in out and "ρ^3εμ" in out
    assert "(27,81)" in out


def test_words_json_output(capsys):
    code, out, _ = run(["words", "--p", "2", "--n", "4", "--max-degree", "40",
                        "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "words"
    assert payload["config"]["p"] == 2
    for rec in payload["words"]:
        assert set(rec) == {"key", "human", "hom", "internal", "total",
                            "weight", "class"}
        assert rec["hom"] + rec["internal"] == rec["total"]


def test_words_csv_output(capsys):
    code, out, _ = run(["words", "--p", "3", "--n", "3", "--max-degree",
                        "108", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "human", "hom", "internal", "total", "weight",
                       "class"]
    assert len(rows) == 5
    assert rows[1][0] == "r^0eu"


def test_diff_search_finds_pair_and_times_to_stderr(capsys):
    code, out, err = run(["diff-search", "--p", "3", "--n", "9",
                          "--max-degree", "170", "--mode", "refined"], capsys)
    assert code == 0
    assert "l^1r^0er^0el^0r^0eu(6,162) ---> er^0el^0r^2er^0eu(1,166): 5" in out
    assert "φ^1ρ^0ερ^0εφ^0ρ^0εμ" in out
    assert "wall-time" in err
    assert "wall-time" not in out


def test_diff_search_byte_identical_runs(capsys):
    argv = ["diff-search", "--p", "3", "--n", "9", "--max-degree", "170",
            "--mode", "raw"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2


def test_series_text_and_csv(capsys):
    code, out, _ = run(["series", "thh-fp", "--p", "2", "--n", "2",
                        "--max-degree", "12"], capsys)
    assert code == 0
    assert "# validity = proved" in out
    assert any(line.split() == ["0", "1"] for line in out.splitlines())
    code, out, _ = run(["series", "thh-fp", "--p", "2", "--n", "2",
                        "--max-degree", "12", "--format", "csv"], capsys)
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["degree", "coefficient"]
    assert ["3", "1"] in rows


def test_series_group_json(capsys):
    code, out, _ = run(["series", "group", "--group", "Z x Z/6", "--p", "3",
                        "--n", "2", "--max-degree", "12", "--format", "json"],
                       capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["series"]["coeffs"]["12"] == 36
    assert payload["series"]["validity"] == "proved"


def test_series_poly_gens(capsys):
    code, out, _ = run(["series", "poly-gens", "--gen-degrees", "1,3",
                        "--p", "2", "--n", "1", "--max-degree", "4"], capsys)
    assert code == 0
    assert any(line.split() == ["4", "4"] for line in out.splitlines())


def test_series_hh_trunc_requires_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["series", "hh-trunc", "--p", "3", "--n", "2",
                  "--max-degree", "8"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["series", "hh-trunc", "--p", "3", "--n", "2", "--m", "4",
                  "--max-degree", "8"])
    assert exc.value.code == 2
    code = cli.main(["series", "hh-trunc", "--p", "3", "--n", "2", "--m", "4",
                     "--word-calculus-only", "--max-degree", "8"])
    assert code == 0
    capsys.readouterr()


def test_verify_powerwords_pass(capsys):
    code, out, _ = run(["verify", "powerwords", "--p", "3", "--k-max", "2"],
                       capsys)
    assert code == 0
    assert out.count("PASS") == 3
    assert "result: ok" in out


def test_verify_powerwords_failure_exit_code(capsys, monkeypatch):
    def boom(p, k_max):
        raise AssertionError("extra word found")
    monkeypatch.setattr(words, "verify_powerwords", boom)
    code, out, _ = run(["verify", "powerwords", "--p", "3", "--k-max", "1"],
                       capsys)
    assert code == 1
    assert "FAIL" in out and "result: FAILED" in out


def test_verify_bar_pass(capsys):
    code, out, _ = run(["verify", "bar", "--case", "poly", "--x-degree", "2",
                        "--p", "2", "--max-s", "3", "--max-degree", "8"],
                       capsys)
    assert code == 0
    assert out.count("PASS") == 6
    assert "result: ok" in out


def test_verify_bar_catches_a_wrong_tor_rewrite(capsys, monkeypatch):
    # the small models are tor_presentation's one-step output, so moving
    # phi^1 x by two internal degrees must fail the homology check
    rewrite = bar.tor_presentation

    def shifted(presentation, max_total, max_weight=None):
        model = rewrite(presentation, max_total, max_weight)
        return bar.AlgebraPresentation(model.p, tuple(
            dataclasses.replace(g, internal=g.internal + 2)
            if g.name.startswith("φ^1") else g for g in model.generators))

    monkeypatch.setattr(bar, "tor_presentation", shifted)
    report = bar.verify_quasi_iso("truncated", 2, 3, 3, max_s=6,
                                  max_internal=18)
    failed = [name for name, ok, _ in report.checks if not ok]
    assert "homology dimensions match the small model" in failed
    code, out, _ = run(["verify", "bar", "--case", "truncated",
                        "--x-degree", "2", "--p", "3", "--m", "3",
                        "--max-s", "6", "--max-degree", "18"], capsys)
    assert code == 1
    assert "result: FAILED" in out


def test_verify_oracle_cross(capsys):
    code, out, _ = run(["verify", "oracle-cross", "--family", "B", "--n", "3",
                        "--p", "2", "--max-degree", "20"], capsys)
    assert code == 0
    assert "PASS" in out
    code, _, _ = run(["verify", "oracle-cross", "--family", "B''", "--m", "3",
                      "--n", "2", "--p", "3", "--max-degree", "10"], capsys)
    assert code == 0


def test_usage_errors_exit_two(capsys):
    for argv in (["words", "--p", "4", "--n", "3"],
                 ["words", "--p", "3"],
                 ["diff-search", "--p", "3", "--n", "1"],
                 ["series", "group", "--p", "3", "--n", "2"],
                 ["series", "group", "--group", "S_3", "--p", "3", "--n", "2"],
                 ["verify", "powerwords", "--p", "2"],
                 ["nonsense"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        capsys.readouterr()


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = cli.main(["series", "thh-fp", "--p", "2", "--n", "2",
                     "--max-degree", "6", "--format", "json",
                     "--out", str(target)])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["series"]["coeffs"] == {"0": 1, "3": 1}


def test_env_var_default_max_degree(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_MAX_DEGREE, "20")
    _, out, _ = run(["words", "--p", "2", "--n", "3"], capsys)
    assert "# max_degree = 20" in out
    monkeypatch.setenv(cli.ENV_MAX_DEGREE, "not-a-number")
    with pytest.raises(SystemExit) as exc:
        cli.main(["words", "--p", "2", "--n", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_explicit_bound_beats_env(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_MAX_DEGREE, "10")
    _, out, _ = run(["words", "--p", "2", "--n", "3", "--max-degree", "30"],
                    capsys)
    assert "# max_degree = 30" in out


def test_seed_echoed(capsys):
    _, out, _ = run(["words", "--p", "2", "--n", "2", "--seed", "17"], capsys)
    assert "# seed = 17" in out
