"""Command-line interface: output formats, config echo, exit codes."""

import csv
import dataclasses
import hashlib
import io
import json
import shlex
from pathlib import Path

import pytest

from hochhom import bar, cli, series, words

README = Path(__file__).resolve().parents[1] / "README.md"
FORMATS = ("", " --format json", " --format csv")

# "exit code:SHA-256 of stdout" for each argv in text, json and csv,
# recorded before each suite and series target had its own parser
FROZEN_REPORTS = {
    "words --p 3 --n 3 --family B --max-degree 108": (
        "0:46357d278594c551bae483419c57f5b59206e7c7d392b1a0d0f13be6c7eedfad",
        "0:c954940c4e0e9ee5a02c433bb04dc3f73a38506a6f68c6288d6e96bec7f6640c",
        "0:a6949ac0e8942086292bc671152f003010db2d9fc8d9e5ba910b08e29adc50b0"),
    "words --p 2 --n 3 --family Bprime --base-degree 1 --max-degree 16": (
        "0:c44d6dca0dc0b398718fd9982718dedbda9b40051f16298105f3150bce2c5e4c",
        "0:9e8b641420413766cab3b43be9af144313682b62c6f9bb46e81371ad4710d734",
        "0:13a5adc23dec20da17aed77eaefc4a03825d6f54d34f4d8556ddb390e8a867cd"),
    "words --p 3 --n 3 --family \"B''\" --m 3 --max-degree 30": (
        "0:a648809dc5442fd373fd46015bacdb58fc3eebd7c86edd05210cb30b187459d9",
        "0:0a6b6c021e1d03d5e51af58a4665c28194b087bea94a0ab57e7a963983258958",
        "0:eb8500881a51fca910b650b904027333170bdad6fdd3e2c176d3b150e8af093d"),
    "words --p 2 --n 2 --seed 17": (
        "0:7e751231ed4135f870efe01083148b9f04e40d798ecf6a255a9ec3f3c6f43ee2",
        "0:278b31a6eaa9c446748dba1c536c75fbe93e5e857be290184711f9aa950d3fad",
        "0:41f4ffe8e6252e9020b5c05e0b49b16791cb1076c392d569fd3f4d5d0a709535"),
    "diff-search --p 2 --n 7 --max-degree 20 --mode refined": (
        "0:19a2d1cf8c4fa052a308691020cf3c52fd336407906417f6a6194485380f0ff7",
        "0:50609b376aaea5ebeae7f9d8eb63091fc105c907ecd407c6531b401c519cc3fb",
        "0:2ed2e698937672857eaabe2c9d00d97408f90259bb760958853f014fb885062b"),
    "diff-search --p 2 --n 6 --max-degree 30 --mode raw": (
        "0:238d028731240918dfbfb4df930b16ae8c03d3399cead9ca1fb40341c2ad4b29",
        "0:7c83028946bb493bcf9bfdc8ef442961a42755fbf7f07bd0c6a52157d210e07b",
        "0:bd1ef5293db57fb9be53f07869531a14afc031e52b043ec9aada503b82135f5e"),
    # odd p: 61 pairs with eps, rho^k and phi^k letters up to k = 4,
    # recorded before the per-letter render memo
    "diff-search --p 3 --n 10 --max-degree 120 --mode raw": (
        "0:5d8141fad394ee772e2c9b366d76afad3c52702504aece28cfbc05c8a9d2fdb0",
        "0:31ab9ad92d6ae8112d91d686bc0eea8c16bd627f01261d2787d89229f2bc298d",
        "0:d74d72b1200c97223621292e3a5420b143aea518aa293994eb476f5ec71f5e3c"),
    "verify bar --case poly --x-degree 2 --p 2 --max-s 3 --max-degree 8": (
        "0:1371bef7d9732d593f92abbdeefc2c3ee8724a060d737b2b3e51eabcf67a50a6",
        "0:9bee1d9f18ee5dee9b653a1625d3718161e31442133065d777faa28ff94b5ab0",
        "0:c0d98db3a34206da4bd09765afcbebe100cafc544f109170852423f96bab23a9"),
    "verify bar --case truncated --x-degree 2 --p 3 --m 3 --max-s 3 -N 8": (
        "0:64852dbe2bef52a65df8606d69201cd6e432ca9167fdf14d29f91b0be6a9f0eb",
        "0:b61fe09a9a877abe773c52437a7a6ac068598e044dd1d072f49adccbc3d14c31",
        "0:c0d98db3a34206da4bd09765afcbebe100cafc544f109170852423f96bab23a9"),
    "verify bar --case exterior --x-degree 1 --p 3 --max-s 3 --max-degree 6": (
        "0:c470e78208c64cace9f146187aa886c15a77afd190687540319bac7c898f6bd0",
        "0:0db42d7a47bd2c412a2d74aa2b3b45f7eb5447df1554382d924e0e8e1fed0c36",
        "0:c0d98db3a34206da4bd09765afcbebe100cafc544f109170852423f96bab23a9"),
    "verify powerwords --p 3 --k-max 2": (
        "0:d3b8cfcf17b64139361351d81dac9432adf3828b984e62dc0229e11d7d430c1d",
        "0:462267e7a86f48462fbde9fa0016ca9982faac51357c6f8d1fa8f1816e2fa558",
        "0:8e13773e2148f805e5bd5d9a00c9dee85c065750be20b700743d664cab8ebef2"),
    "verify oracle-cross --family B --n 3 --p 2 --max-degree 20": (
        "0:4d75d284bf3cf498499ee9159b3024817da1a8d0c3e93bc9aa17509950a44bf5",
        "0:2a4b5b68d2bdf9f76f045598da5247b90661eee5f585890e06fcadff093f3489",
        "0:8e13773e2148f805e5bd5d9a00c9dee85c065750be20b700743d664cab8ebef2"),
    "verify oracle-cross --family Bprime --n 2 --p 3 --max-degree 10": (
        "0:844481ed04b91ac87e3fee2b66941bf0ad9999ff1c080297edd9fb5deac5684a",
        "0:608bb88c449689fc7b1d237d066eafef9622eef484a71876d710752941aef2f3",
        "0:8e13773e2148f805e5bd5d9a00c9dee85c065750be20b700743d664cab8ebef2"),
    "verify oracle-cross --family \"B''\" --m 3 --n 2 --p 3 --max-degree 10": (
        "0:f8e5ff49f05aedc4e673507b3aa929494b49f3ac4af6053250740bfc22626b32",
        "0:bf558ad73da8ded0207dc97f78ab1abd315fc2136ee484b21d777be58c5d08a5",
        "0:8e13773e2148f805e5bd5d9a00c9dee85c065750be20b700743d664cab8ebef2"),
    # recorded while the Tor rewrite still counted by weight
    "verify oracle-cross --family \"B''\" --m 4 --n 8 --p 3 -N 200": (
        "0:e802b7dc75e65d5498065321b555dc21b1fab08d8d761b9838d261c4ec4d64fa",
        "0:a08bb8acc95bc5568827c6b5f60d5abdb337995af2031ec6c43698b60e31bb3d",
        "0:8e13773e2148f805e5bd5d9a00c9dee85c065750be20b700743d664cab8ebef2"),
    "series thh-fp --p 2 --n 2 --max-degree 12": (
        "0:8d55ce0672cfaf78c70cd57b0796bf2cba244c88dc77dddcd94bc998b2da83d8",
        "0:823dd16f07877b224b251e1446741418e499ba196dd2f822552f43db7c355c2e",
        "0:52b5b83ad6f80ce071ca24989bf593d04151dba46fd661e9f019f8db884ed4b5"),
    "series thh-fp --p 2 --n 7 -N 20 --seed 3": (
        "0:6f2f50f76c46fe717ab95816b1d15b9ff3c4f44c5a2b7df9b858db4d18ead5e2",
        "0:be5989fbef0d475e7e28a3fb4d134ee85dd48246a5d3c58c229d561dada3f3d4",
        "0:32f8cd2626eb693b53d2a589e52ca2e217409a124e9c8501d45ca2abdd6ab072"),
    "series hh-poly --p 3 --n 2 --max-degree 24": (
        "0:79b4f711156e2f1caa441b358383469e550596c2a86b58ecf108c2736a666b90",
        "0:67b8b8ba4458fcd28cd81f1a9daaf71624c706e42c7a8f464f777822bbd61417",
        "0:2dbc236e873aecaeaa5e0ed3d9c70d3d57882c97e7e988271cc0ad9493aa96d0"),
    "series hh-laurent --p 3 --n 2 --max-degree 12": (
        "0:984b1ad5c08997180ab230d9aa565df75dba9d67a4da8f5287484a9bd06633b9",
        "0:c03a7350a265e6259d7922509e07c00ccbc5acb8161ba38dabc73b43bcbe8799",
        "0:24d2a0113124a657645ab43345bd4550e393ec88caa744f8187433c0ccc2212b"),
    "series hh-trunc --p 3 --n 1 --ell 1 --max-degree 12": (
        "0:5ec0ea9d2d5a1ef9e8f94e9c5f0c7c65c2b83f4cda977fe0eb124c6ce338ce4e",
        "0:77dc1fa26dcd4ab70f25203bb898f4371119dcfb2dd18ced035d5e6dbbc5e828",
        "0:e8d6292b65b0ff830022c21a665c4f761ec1c64b462cb249801cf3dfe6c2eed4"),
    "series hh-trunc --p 3 --n 2 --m 4 --word-calculus-only --max-degree 12": (
        "0:10a86956079fa26ef9b2ad0d47ae83ab418e715fab6695797775c4a2e258d974",
        "0:78edd511105ac5a52c35d1691feae7eeef433584d447cd233a4de7af6ce71e82",
        "0:39f3bbc205d4c643dcd6750bfda662d110f9ac363d180d78fff79873ce3c6fd1"),
    "series group --group \"Z x Z/6\" --p 3 --n 2 --max-degree 12": (
        "0:1ff4e06e2e1f2718a60199e8b86817f8b7a6101cf42a7d87a75868582a614ab8",
        "0:3b50c01a9816e9a5da3cde3002339f6b6792ab4939f97745f41b91b75b45e3a5",
        "0:702fe6da46e6a2bc0e369c8ecb91333412042fd0bba293f83cbf1d04ba7eff83"),
    "series poly-gens --gen-degrees 1,3 --p 2 --n 1 --max-degree 8": (
        "0:2ce2488cb2ccdd1d0df62550b349d6c5f811cc58127df8b7cf51c3872fb12517",
        "0:7c0f219280112cbbdab0d34254faed8e066756040cbd997ac29c55a032abe048",
        "0:93c84ebb59017a52023b31e2a2fcbb9b51ed55b9f032cea7b93113adfae2561e"),
}
FROZEN_FAILURES = {
    "verify powerwords --p 3 --k-max 1": (
        "1:77b4823ec9ca801d4092f1c7c426bf78449b0b82cff9418eef178a213aefde5c",
        "1:fcb8d96c20e5592039edbac8ccd3dccea143c195b6d68b6c8f5226023f313d1e",
        "1:2e62e17fd70b2dfb2010ed174215f97c9bbed45bbe2fc82bccb8e947598f066c"),
    "verify oracle-cross --family B --n 3 --p 2 --max-degree 12": (
        "1:83c46571b0cdfda5fd8b32b16609ebf5f238766055917bc6833eae7df2ea524b",
        "1:ad117dc3ebe3d9549f5a8170da940973d10bcca4c31084bf361ba15aafbe81b3",
        "1:2e62e17fd70b2dfb2010ed174215f97c9bbed45bbe2fc82bccb8e947598f066c"),
}

# exit 2 with nothing on stdout, before and after that change
USAGE_ERRORS = (
    "words --p 4 --n 3", "words --p 3", "diff-search --p 3 --n 1",
    "series group --p 3 --n 2", "series group --group S_3 --p 3 --n 2",
    "verify powerwords --p 2", "nonsense",
    # powerwords reads no degree bound, so it takes none
    "verify powerwords --p 3 --max-degree 5",
    "words --p 3 --n 3 --family \"B''\"",
    "series hh-trunc --p 3 --n 2 --max-degree 8",
    "series hh-trunc --p 3 --n 2 --m 4 --max-degree 8",
    "verify oracle-cross --family Bprime --n 1 --p 3",
    "series thh-fp --p 2 --n 2 --max-degree -1",
    "series poly-gens --gen-degrees '' --p 2 --n 1",
    # these four used to exit 0, ignoring an option or echoing an unused one
    "series poly-gens --gen-degrees , --p 3 --n 2 --max-degree 6",
    "series hh-trunc --p 3 --n 2 --m 3 --ell 1 --word-calculus-only -N 6",
    "series hh-trunc --p 3 --n 2 --ell 1 --word-calculus-only -N 6",
    "verify bar --case poly --m 3 --p 3",
    # refused by Generator, the one check of a truncation height
    "verify bar --case truncated --p 3",
    # -1 used to stand for the default base degree and exit 0
    "words --p 3 --n 2 --family B --base-degree -1 -N 20",
    # refused on its predicted size, 28,947,240 words, before any is built
    "diff-search --p 7 --n 18 --max-degree 117649",
)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def digest(argv, capsys):
    try:
        code = cli.main(shlex.split(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    return f"{code}:{hashlib.sha256(out.encode('utf-8')).hexdigest()}"


def digests(frozen, capsys):
    return {base: tuple(digest(base + fmt, capsys) for fmt in FORMATS)
            for base in frozen}


def test_reports_match_frozen_digests(capsys, monkeypatch):
    assert digests(FROZEN_REPORTS, capsys) == FROZEN_REPORTS
    empty = "2:" + hashlib.sha256(b"").hexdigest()
    assert {argv: digest(argv, capsys) for argv in USAGE_ERRORS} \
        == dict.fromkeys(USAGE_ERRORS, empty)
    # the failure branches: verify_powerwords finds an extra word, and
    # the Tor rewrite runs one level too far
    def extra_word(p, k_max):
        raise AssertionError("extra word found")
    tor = bar.iterated_tor
    monkeypatch.setattr(words, "verify_powerwords", extra_word)
    monkeypatch.setattr(bar, "iterated_tor",
                        lambda start, levels, N: tor(start, levels + 1, N))
    assert digests(FROZEN_FAILURES, capsys) == FROZEN_FAILURES


def test_each_format_renders_only_itself(capsys, monkeypatch):
    # a report renders the format asked for and no other: a text run
    # builds no JSON record or CSV row, a JSON run no text line, and the
    # bytes stay the frozen ones
    def refuse(*_args, **_kwargs):
        raise AssertionError("rendered a format that was not asked for")

    series_json = (series.PoincareSeries, "to_json_dict")
    series_text = (series.PoincareSeries, "text_table")
    pair_json = (words.DifferentialCandidate, "to_json_dict")
    pair_text = [(words.DifferentialCandidate, "key_line"),
                 (words.DifferentialCandidate, "human_line")]
    refused = {"": [series_json, pair_json],
               " --format json": [series_text, *pair_text],
               " --format csv": [series_json, series_text, *pair_text]}
    argvs = [argv for argv in FROZEN_REPORTS
             if argv.startswith(("diff-search", "series"))]
    for i, fmt in enumerate(FORMATS):
        with monkeypatch.context() as patch:
            for owner, attr in refused[fmt]:
                patch.setattr(owner, attr, refuse)
            assert {argv: digest(argv + fmt, capsys) for argv in argvs} \
                == {argv: FROZEN_REPORTS[argv][i] for argv in argvs}, fmt


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


def test_degree_bound_zero_admits_no_letter(capsys):
    # each of these exited 2 with "degree bound must be >= 1"
    for argv, last in (("series thh-fp --p 3 --n 2", "  0  1"),
                       ("series group --group Z/2 --p 3 --n 2", "  0  2"),
                       ("series hh-laurent --p 3 --n 2", "  0  1"),
                       ("words --family Bprime --p 3 --n 1",
                        "x    x     (0,0)     0      1       free"),
                       ("words --family B --p 3 --n 2",
                        "key  word  bidegree  total  weight  class"),
                       ("verify oracle-cross --p 3 --n 2", "result: ok")):
        code, out, _ = run(shlex.split(argv + " --max-degree 0"), capsys)
        assert (code, out.splitlines()[-1]) == (0, last), argv
    # the search needs p^E <= N
    with pytest.raises(SystemExit) as exc:
        cli.main(["diff-search", "--p", "3", "--n", "5", "--max-degree", "0"])
    assert exc.value.code == 2
    assert "degree bound must be >= 1" in capsys.readouterr().err


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


def test_verify_powerwords_reports_an_extra_word(capsys, monkeypatch):
    # the real check, fed one more word of total degree 4p = 12 at p = 3
    honest = words._graded_levels

    def with_extra(n, family, p, max_degree):
        levels = honest(n, family, p, max_degree)
        levels[-1].append(((words.phi(0), words.EPS, words.MU), 2, 12, 0))
        return levels

    monkeypatch.setattr(words, "_graded_levels", with_extra)
    with pytest.raises(AssertionError, match=r"offending: \['φ\^0εμ'\]"):
        words.verify_powerwords(3, 1)
    code, out, _ = run(["verify", "powerwords", "--p", "3", "--k-max", "1"],
                       capsys)
    assert code == 1
    assert "FAIL:" in out and "φ^0εμ" in out


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


def test_verify_bar_catches_an_extra_bar_class(capsys, monkeypatch):
    # the homology check reads bar_homology, so one class too many in its
    # table must fail that check alone
    honest = bar.bar_homology

    def one_more(presentation, max_s, max_degree, max_weight=None):
        dims = honest(presentation, max_s, max_degree, max_weight).as_dict()
        dims[(0, 0, 0)] += 1
        return bar.BigradedDims(dims)

    monkeypatch.setattr(bar, "bar_homology", one_more)
    report = bar.verify_quasi_iso("truncated", 2, 3, 3, max_s=6,
                                  max_internal=18)
    assert [name for name, ok, _ in report.checks if not ok] == [
        "homology dimensions match the small model"]
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
    # the last three give an option the handler never reads, or an option
    # before the suite name
    for argv in USAGE_ERRORS + (
            "series thh-fp --p 3 --n 1 --max-degree 4 --group Z/6",
            "words --p 3 --n 3 --family B --m 4",
            "verify --p 3 powerwords"):
        with pytest.raises(SystemExit) as exc:
            cli.main(shlex.split(argv))
        assert exc.value.code == 2, argv
        capsys.readouterr()


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "r.txt"
    with pytest.raises(SystemExit) as exc:
        cli.main(["series", "thh-fp", "--p", "3", "--n", "1",
                  "--max-degree", "4", "--out", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "No such file or directory" in captured.err
    assert not target.parent.exists()


def readme_blocks(lang):
    """The README's fenced blocks in this language, as lists of lines."""
    blocks, block = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            if block is not None:
                blocks.append(block)
            block = [] if line == "```" + lang else None
        elif block is not None:
            block.append(line)
    return blocks


def test_readme_commands_run(capsys):
    commands = [shlex.split(line)[1:] for block in readme_blocks("sh")
                for line in block if line.startswith("hochhom ")]
    assert len(commands) >= 12
    for argv in commands:
        assert cli.main(argv) == 0, argv
        capsys.readouterr()


def test_readme_python_quick_start_runs(capsys):
    blocks = readme_blocks("python")
    assert blocks
    for block in blocks:
        exec(compile("\n".join(block), str(README), "exec"), {})
    assert capsys.readouterr().out.count("\n") >= 3


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


def test_default_max_degree_is_a_constant(capsys, monkeypatch):
    # the bound is --max-degree or 64, whatever the environment holds
    monkeypatch.setenv("HOCHHOM_MAX_DEGREE", "20")
    _, out, _ = run(["words", "--p", "2", "--n", "3"], capsys)
    assert "# max_degree = 64" in out


def test_seed_echoed(capsys):
    _, out, _ = run(["words", "--p", "2", "--n", "2", "--seed", "17"], capsys)
    assert "# seed = 17" in out
