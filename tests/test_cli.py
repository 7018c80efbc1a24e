import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest

import laminal as L
from laminal.ancillary import _Lattice
from laminal.cli import _build_parser, main
from laminal.corpus import _random_mixture
from laminal.partitions import cached


@pytest.fixture()
def ex1_file(tmp_path, ex1):
    path = tmp_path / "ex1.model"
    path.write_text(L.format_model(ex1))
    return str(path)


@pytest.fixture()
def ex2_file(tmp_path, ex2):
    path = tmp_path / "ex2.model"
    path.write_text(L.format_model(ex2))
    return str(path)


def wide_file(tmp_path, n):
    """A two-theta model on n points whose n likelihood ratios all differ,
    so its minimal sufficient partition keeps every point apart."""
    total = n * (n + 1) // 2
    rows = [[F(i + 1, total) for i in range(n)],
            [F(n - i, total) for i in range(n)]]
    path = tmp_path / f"wide{n}.model"
    path.write_text(L.format_model(
        L.FiniteModel(("a", "b"), tuple(str(i + 1) for i in range(n)), rows, f"wide{n}")))
    return str(path)


MODEL_BYTES = b"model m\nthetas a b\nsamples x y z\na 1/2 1/4 1/4\nb 1/4 1/2 1/4\n"


@pytest.fixture()
def one_theta_file(tmp_path):
    m = L.FiniteModel(("t",), ("1", "2"), [[F(1, 2), F(1, 2)]], "flat2")
    path = tmp_path / "flat.model"
    path.write_text(L.format_model(m))
    return str(path)


class TestAnalyze:
    def test_example1_report(self, ex1_file, capsys):
        assert main(["analyze", ex1_file]) == 0
        out = capsys.readouterr().out
        idx = out.index("minimal ancillaries")
        tail = out[idx:out.index("laminal ancillary")]
        for text in ("1,2,3,4,5,6,7", "1,2,3,4,5,6|7", "1,2,3,4,7|5,6",
                     "1,2,3,4|5,6,7", "1,2,3,4|5,6|7"):
            assert text in tail
        assert "count: 25" in out
        assert "atoms: {7}; {5,6}; {1,2,3,4}" in out

    def test_one_theta_unrestricted(self, one_theta_file, capsys):
        assert main(["analyze", one_theta_file, "--no-within-mss"]) == 0
        out = capsys.readouterr().out
        assert "count: 2" in out
        assert "1|2" in out  # laminal is the discrete partition

    def test_one_theta_within_mss_sees_only_the_trivial(self, one_theta_file, capsys):
        assert main(["analyze", one_theta_file]) == 0
        out = capsys.readouterr().out
        assert "count: 1" in out

    def test_cap_exit_code(self, tmp_path, capsys):
        n = 14
        total = n * (n + 1) // 2
        rows = [[F(i + 1, total) for i in range(n)],
                [F(n - i, total) for i in range(n)]]
        m = L.FiniteModel(("a", "b"), tuple(str(i + 1) for i in range(n)), rows,
                          "wide")
        path = tmp_path / "wide.model"
        path.write_text(L.format_model(m))
        assert main(["analyze", str(path)]) == 3

    def test_search_cap_is_checked_before_the_event_scan(self, tmp_path, capsys):
        # Past both caps, the cheap search-cap check must fire first, before
        # the stability check asks for the 2^n event table.
        n = 21
        total = n * (n + 1) // 2
        rows = [[F(i + 1, total) for i in range(n)],
                [F(n - i, total) for i in range(n)]]
        path = tmp_path / "wider.model"
        path.write_text(L.format_model(
            L.FiniteModel(("a", "b"), tuple(str(i + 1) for i in range(n)), rows, "wider")))
        assert main(["analyze", str(path), "--no-within-mss"]) == 3
        assert capsys.readouterr().err == "error: enumeration over 21 items exceeds the cap of 13\n"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.model"
        path.write_text("model bad\nthetas a\nsamples 1 2\na 1/2 1/3\n")
        assert main(["analyze", str(path)]) == 2
        assert main(["analyze", str(tmp_path / "missing.model")]) == 2

    def test_out_naming_an_existing_file_exits_2(self, ex1_file, tmp_path, capsys):
        # The report is printed first; the --out directory cannot be made,
        # which is reported as one error line naming the path.
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        assert main(["evidence", ex1_file, "--observed", "1", "--out", str(afile)]) == 2
        out, err = capsys.readouterr()
        assert out.startswith("evidence")
        assert err == f"error: [Errno 17] File exists: {str(afile)!r}\n"
        assert afile.read_text() == "kept\n"

    def test_non_utf8_model_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "utf16.model"
        path.write_bytes(b"\xff\xfe" + "model m\n".encode("utf-16-le"))
        assert main(["analyze", str(path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_model_file_starting_with_a_utf8_bom_is_read(self, ex1_file, tmp_path, capsys):
        path = tmp_path / "bom.model"
        path.write_bytes(b"\xef\xbb\xbf" + Path(ex1_file).read_bytes())
        assert main(["analyze", ex1_file]) == 0
        plain = capsys.readouterr()
        assert main(["analyze", str(path)]) == 0
        assert capsys.readouterr() == plain

    @pytest.mark.parametrize("bom, newline", [(b"", b"\r\n"), (b"", b"\r"),
                                              (b"\xef\xbb\xbf", b"\r\n")],
                             ids=["crlf", "cr", "bom-crlf"])
    def test_other_line_ends_give_the_lf_report(self, ex1_file, tmp_path, capsys,
                                                bom, newline):
        lf = Path(ex1_file).read_bytes()
        assert b"\r" not in lf
        path = tmp_path / "other.model"
        path.write_bytes(bom + lf.replace(b"\n", newline))
        assert main(["analyze", ex1_file]) == 0
        plain = capsys.readouterr()
        assert main(["analyze", str(path)]) == 0
        assert capsys.readouterr() == plain

    @pytest.mark.parametrize("data, position", [
        # The position counts from the end of the byte order mark.
        (b"\xef\xbb\xbf" + MODEL_BYTES[:31] + b"\xff" + MODEL_BYTES[31:], 31),
        # Past the first 8 KiB: the whole file is decoded in one pass.
        (MODEL_BYTES + b"#" + b"x" * 9000 + b"\n# \xff\n", 9065),
    ], ids=["after-bom", "past-8-kib"])
    def test_a_bad_byte_is_named_with_its_position(self, tmp_path, capsys, data, position):
        path = tmp_path / "bad.model"
        path.write_bytes(data)
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: model file {path} is not UTF-8 text: 'utf-8' codec can't decode "
            f"byte 0xff in position {position}: invalid start byte\n"))

    def test_labels_with_partition_syntax_exit_2(self, tmp_path, capsys):
        path = tmp_path / "labels.model"
        path.write_text("model m\nthetas a b\nsamples 1,2 3|4 5\n"
                        "a 1/3 1/3 1/3\nb 1/6 1/2 1/3\n")
        assert main(["analyze", str(path)]) == 2
        assert "label" in capsys.readouterr().err

    def test_out_writes_utf8_under_an_ascii_locale(self, tmp_path):
        # Model files are read as UTF-8, so report.txt is written as UTF-8
        # too, whatever the locale's encoding.
        path = tmp_path / "theta.model"
        path.write_text("model m\nthetas a b\nsamples \u03b81 x y\n"
                        "a 1/2 1/4 1/4\nb 1/4 1/2 1/4\n", encoding="utf-8")
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONIOENCODING="utf-8", PYTHONPATH=str(Path(L.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-m", "laminal.cli", "analyze", str(path),
                              "--out", str(tmp_path / "d")], capture_output=True, env=env)
        assert run.returncode == 0, run.stderr.decode()
        assert "\u03b81".encode() in run.stdout
        assert (tmp_path / "d" / "report.txt").read_bytes() == run.stdout

    def test_console_script_speaks_utf8_under_an_ascii_locale(self, tmp_path):
        # No PYTHONIOENCODING: the console script itself writes UTF-8 and
        # reads its arguments as UTF-8, as it reads model files.
        path = tmp_path / "theta.model"
        path.write_text("model m\nthetas a b\nsamples θ1 x y\n"
                        "a 1/2 1/4 1/4\nb 1/4 1/2 1/4\n", encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
        env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=str(Path(L.__file__).parents[1]))

        def cli(*argv):
            return subprocess.run([sys.executable, "-m", "laminal.cli", *argv],
                                  capture_output=True, env=env)

        run = cli("analyze", str(path), "--out", str(tmp_path / "d"))
        assert run.returncode == 0, run.stderr.decode()
        assert (tmp_path / "d" / "report.txt").read_bytes() == run.stdout
        run = cli("evidence", str(path), "--observed", "θ1")
        assert run.returncode == 0, run.stderr.decode()
        assert "observed θ1".encode() in run.stdout

    def test_non_ascii_paths_under_an_ascii_locale(self, tmp_path):
        # The file system encoding is ASCII here; the model file and the
        # --out directory are named by the UTF-8 bytes given on the command line.
        base = os.fsencode(tmp_path)
        model, out = os.path.join(base, "θ.model".encode()), os.path.join(base, "δ".encode())
        with open(model, "wb") as f:
            f.write(b"model m\nthetas a b\nsamples x y z\na 1/2 1/4 1/4\nb 1/4 1/2 1/4\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
        env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=str(Path(L.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-m", "laminal.cli", "evidence", model,
                              "--observed", "x", "--out", out], capture_output=True, env=env)
        assert run.returncode == 0, run.stderr.decode()
        with open(os.path.join(out, b"report.txt"), "rb") as f:
            assert f.read() == run.stdout

    @pytest.mark.parametrize("locale", [
        {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
        {"PYTHONUTF8": "1"},
    ], ids=["ascii", "utf8"])
    def test_missing_non_ascii_path_is_named_as_given(self, tmp_path, locale):
        # The error names the path by the UTF-8 bytes given on the command
        # line, not by surrogate escapes of its file-system form.
        missing = os.path.join(os.fsencode(tmp_path), "missingθ.model".encode())
        env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
        env.update(locale, PYTHONPATH=str(Path(L.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-m", "laminal.cli", "evidence", missing,
                              "--observed", "x"], capture_output=True, env=env)
        assert run.returncode == 2
        named = repr(missing.decode("utf-8"))
        assert run.stderr == f"error: [Errno 2] No such file or directory: {named}\n".encode()

    def test_large_model_with_small_mss_analyzes_within(self, tmp_path, ex1, capsys):
        # 14 points: the first seven halve the two-maximal example, the rest
        # are exchangeable padding that collapses into one sufficiency class,
        # so the restricted lattice stays enumerable while n = 14 does not.
        rows = [
            [v / 2 for v in row] + [F(1, 14)] * 7
            for row in ex1.probs
        ]
        m = L.FiniteModel(("theta1", "theta2"),
                          tuple(str(i + 1) for i in range(14)), rows, "wide14")
        path = tmp_path / "wide14.model"
        path.write_text(L.format_model(m))
        assert main(["analyze", str(path), "--no-within-mss"]) == 3
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1,2,3,4|5,6|7,8,9,10,11,12,13,14" in out  # laminal analogue
        assert "reweight" in out  # witness section populated

    def test_witnesses_of_a_ten_point_mixture(self, tmp_path, capsys):
        # Unrestricted, the witness pass walks all Bell(10) partitions in
        # enumeration order; the lines were recorded before partitions
        # became tuples.
        path = tmp_path / "mix10.model"
        path.write_text(L.format_model(_random_mixture(Random(401), 2, 10, "mix10")))
        assert main(["analyze", str(path), "--no-within-mss"]) == 0
        out = capsys.readouterr().out
        title = "instability witnesses (one per non-stable ancillary)"
        section = out[out.index(title):].split("\n")[2:-1]
        assert section == [
            "1,2|3,4,5,6,7,8,9,10: reweight 1,3,4,6,7,8,10|2,5,9 by (1, 0); "
            "block {1,2} gets 2/11 under theta1 vs 0 under theta2",
            "1,2,3,4,5,6,7,8|9,10: reweight 1,3,4,6,7,8,10|2,5,9 by (1, 0); "
            "block {1,2,3,4,5,6,7,8} gets 6/11 under theta1 vs 3/11 under theta2",
            "1,2,9,10|3,4,5,6,7,8: reweight 1,3,4,6,7,8,10|2,5,9 by (1, 0); "
            "block {1,2,9,10} gets 7/11 under theta1 vs 8/11 under theta2",
            "1,3,4,6,7,8,10|2,5,9: reweight 1,2,3,4,5,6,7,8|9,10 by (1, 0); "
            "block {1,3,4,6,7,8,10} gets 9/10 under theta1 vs 9/20 under theta2",
            "1,2|3,4,5,6,7,8|9,10: reweight 1,3,4,6,7,8,10|2,5,9 by (1, 0); "
            "block {1,2} gets 2/11 under theta1 vs 0 under theta2",
        ]


class TestEvidence:
    def test_sc_on_example1(self, ex1_file, capsys):
        assert main(["evidence", ex1_file, "--observed", "5",
                     "--function", "sc"]) == 0
        out = capsys.readouterr().out
        assert "{5,6}" in out
        assert "1/3" in out and "2/3" in out
        assert "PASS" in out

    def test_ms_on_example2(self, ex2_file, capsys):
        assert main(["evidence", ex2_file, "--observed", "1",
                     "--function", "ms"]) == 0
        out = capsys.readouterr().out
        assert "{1}" in out and "{4}" in out
        assert "5/12" in out

    def test_pushforward_brace_labels_still_render(self, tmp_path, capsys):
        # Model files may not use {, }, ',' or '|' in labels, but the
        # minimal sufficient pushforward names its points {a,b} by design.
        path = tmp_path / "braces.model"
        path.write_text("model braces\nthetas a b\nsamples 1 2 3 4\n"
                        "a 1/8 1/8 1/4 1/2\nb 1/16 1/16 3/8 1/2\n")
        assert main(["evidence", str(path), "--observed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("""
block  signature
-----  ----------
{1,2}  (2/3, 1/3)
{3}    (2/5, 3/5)
{4}    (1/2, 1/2)

laminal contour (conditioning event)
------------------------------------
{1,2,3}

evidence model
--------------
x  {1,2}  {3}
-  -----  ---
a  1/2    1/2
b  1/4    3/4

observed block
--------------
{1,2}

idempotence check (double reduction is a fixed point)
-----------------------------------------------------
PASS
""")

    def test_unknown_observed_label(self, ex1_file, capsys):
        assert main(["evidence", ex1_file, "--observed", "9"]) == 2

    def test_ms_runs_its_own_check_below_any_cap(self, ex1_file, tmp_path, capsys):
        # The minimal sufficient reduction and its idempotence check scan
        # nothing; the sc reduction needs the 2^k event scan of the reduced
        # model, which 21 minimal sufficient blocks exceed.
        assert main(["evidence", ex1_file, "--observed", "1", "--function", "ms"]) == 0
        assert capsys.readouterr().out.endswith(
            "idempotence check (double reduction is a fixed point)\n"
            "-----------------------------------------------------\n"
            "PASS\n")
        assert main(["evidence", wide_file(tmp_path, 21), "--observed", "1",
                     "--function", "sc"]) == 3
        assert capsys.readouterr().err == "error: 2^21 event scan exceeds the cap of 2^20\n"

    @pytest.mark.parametrize("n", [14, 20])
    def test_sc_answers_past_the_search_cap(self, tmp_path, capsys, n):
        # 14 minimal sufficient blocks are past the ancillary search cap of
        # 13, but the laminal is read off the atoms: no search runs.  The
        # zero-sum table is read from split halves, so 20 blocks, the event
        # table's cap of 2^20, still answer.
        path = wide_file(tmp_path, n)
        assert main(["evidence", path, "--observed", "1", "--function", "sc"]) == 0
        out = capsys.readouterr().out
        assert "laminal contour (conditioning event)\n" \
               "------------------------------------\n" \
               "{" + ",".join(map(str, range(1, n + 1))) + "}\n" in out
        assert out.endswith("PASS\n")
        assert main(["compare", path, path, "--observed1", "1", "--observed2", "2",
                     "--relation", "sc"]) == 0

    def test_sc_runs_no_ancillary_search(self, ex1_file, capsys, monkeypatch):
        searched = []
        real = _Lattice._blocks.func

        def counted(lat):
            searched.append(lat.k)
            return real(lat)

        prop = cached(counted)
        prop.__set_name__(_Lattice, "_blocks")
        monkeypatch.setattr(_Lattice, "_blocks", prop)
        assert main(["evidence", ex1_file, "--observed", "1", "--function", "sc"]) == 0
        assert searched == []
        assert main(["analyze", ex1_file]) == 0
        assert searched

    def test_sc_check_reads_the_report_reduction(self, ex1_file, capsys, monkeypatch):
        # One laminal for the report's contour, one for the check's second
        # order (ev_sc after ev_ms); the first order is the report's own.
        built = []
        init = _Lattice.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(_Lattice, "__init__", counted)
        assert main(["evidence", ex1_file, "--observed", "1", "--function", "sc"]) == 0
        assert len(built) == 2
        assert capsys.readouterr().out == """\
evidence (sc) for model example1, observed 1
============================================

minimal sufficient partition
----------------------------
1|2|3|4|5|6|7
block signatures (normalized probability vectors):
block  signature
-----  ----------------
{1}    (18/25, 7/25)
{2}    (46/125, 79/125)
{3}    (58/149, 91/149)
{4}    (14/17, 3/17)
{5}    (1/3, 2/3)
{6}    (2/3, 1/3)
{7}    (1/2, 1/2)

laminal contour (conditioning event)
------------------------------------
{1,2,3,4}

evidence model
--------------
x       {1}     {2}     {3}     {4}
------  ------  ------  ------  ------
theta1  27/100  23/100  29/100  21/100
theta2  21/200  79/200  91/200  9/200

observed block
--------------
{1}

idempotence check (double reduction is a fixed point)
-----------------------------------------------------
PASS
"""


class TestOneMssPerReduction:
    @pytest.mark.parametrize("argv, count", [
        (["analyze"], 1),
        (["analyze", "--no-within-mss"], 1),
        # The report's reduction, then is_ms_reduced of ev_sc(ib) and the
        # ev_sc of the report's ev_ms(ib) in the idempotence check.
        (["evidence", "--observed", "1", "--function", "sc"], 3),
    ])
    def test_mss_partition_calls(self, ex1_file, capsys, monkeypatch, argv, count):
        calls = []
        original = L.sufficiency.mss_partition

        def counted(model):
            calls.append(model)
            return original(model)

        # Every laminal module that binds it, so that no call escapes the count.
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "laminal":
                continue
            if getattr(module, "mss_partition", None) is original:
                monkeypatch.setattr(module, "mss_partition", counted)
        assert main([argv[0], ex1_file, *argv[1:]]) == 0
        assert len(calls) == count


class TestIntegerArguments:
    def test_out_of_range_values_exit_2_at_parse_time(self, ex1_file, capsys):
        for argv, message in (
            (["audit", "--corpus-size", "-3"], "argument --corpus-size: must be at least 0, not -3"),
            (["analyze", ex1_file, "--cap", "-1"], "argument --cap: must be at least 1, not -1"),
            (["audit", "--cap", "0"], "argument --cap: must be at least 1, not 0"),
            (["evidence", ex1_file, "--observed", "1", "--cap", "2"],
             "unrecognized arguments: --cap 2"),
            (["analyze", ex1_file, "--cap", "many"], "argument --cap: invalid int value: 'many'"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == "" and message in err

    def test_smallest_values_still_run(self, ex1_file, capsys):
        assert main(["audit", "--relation", "s", "--corpus-size", "0"]) == 0
        assert "on 6 inference bases (seed 1, size 0)" in capsys.readouterr().out
        assert main(["audit", "--relation", "sc", "--corpus-size", "0", "--cap", "1"]) == 0
        assert main(["analyze", ex1_file, "--cap", "1"]) == 3


class TestOneParserPerProcess:
    def test_reused_parser_answers_as_a_fresh_one(self, ex1_file, ex2_file, capsys):
        # main builds its parser on the first call and reuses it; an option
        # set in one call, or a call that fails to parse, must not leak
        # into the next.
        calls = [
            ["analyze", ex1_file, "--no-within-mss"],
            ["analyze", ex1_file],
            ["analyze", ex1_file, "--cap", "many"],
            ["evidence", ex2_file, "--observed", "1"],
            ["compare", ex1_file, ex1_file, "--observed1", "5", "--observed2", "6"],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            out, err = capsys.readouterr()
            return code, out, err

        _build_parser.cache_clear()
        reused = [run(argv) for argv in calls]
        assert _build_parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            _build_parser.cache_clear()
            fresh.append(run(argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, ("exit", 2), 0, 0]
        assert "(enumerated over all partitions of the sample space)" in reused[0][1]
        assert "(enumerated over coarsenings of the minimal" in reused[1][1]
        assert "invalid int value: 'many'" in reused[2][2]


class TestCompare:
    def test_self_comparison_is_identity(self, ex1_file, capsys):
        assert main(["compare", ex1_file, ex1_file, "--observed1", "5",
                     "--observed2", "5", "--relation", "sc"]) == 0
        out = capsys.readouterr().out
        assert "EQUIVALENT" in out and "NOT-EQUIVALENT" not in out
        assert "identity relabeling" in out

    def test_observed_5_vs_6_not_s_equivalent(self, ex1_file, capsys):
        assert main(["compare", ex1_file, ex1_file, "--observed1", "5",
                     "--observed2", "6", "--relation", "s"]) == 0
        out = capsys.readouterr().out
        assert "NOT-EQUIVALENT" in out
        assert "obstruction" in out

    def test_theta_mismatch_exits_2(self, ex1_file, tmp_path, capsys):
        other = L.FiniteModel(("p", "q"), ("1", "2"),
                              [[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]], "other")
        path = tmp_path / "other.model"
        path.write_text(L.format_model(other))
        assert main(["compare", ex1_file, str(path), "--observed1", "1",
                     "--observed2", "1", "--relation", "s"]) == 2


# Two generic 2x3 models (no ancillary but the trivial one, so the laminal
# contour is the whole space) that share their first column and nothing else.
_SAME_FIRST_COLUMN = (
    (("1/2", "1/3", "1/6"), ("1/4", "1/4", "1/2")),
    (("1/2", "1/5", "3/10"), ("1/4", "1/4", "1/2")),
)


@pytest.fixture()
def model_files(tmp_path, ex1, ex2):
    models = {"ex1": ex1, "ex2": ex2}
    for name, rows in zip(("gen_a", "gen_b"), _SAME_FIRST_COLUMN):
        models[name] = L.FiniteModel(("theta1", "theta2"), ("a", "b", "c"), rows, name)
    paths = {}
    for name, model in models.items():
        paths[name] = tmp_path / f"{name}.model"
        paths[name].write_text(L.format_model(model))
    return {name: str(path) for name, path in paths.items()}


class TestObstructionReasons:
    """Every reason ``compare`` can give, pinned word for word."""

    @pytest.mark.parametrize("relation, first, second, reason", [
        ("s", ("ex1", "1"), ("ex2", "1"),
         "minimal sufficient spaces differ in size (7 vs 4)"),
        ("s", ("ex1", "5"), ("ex1", "6"),
         "observed blocks have different probability vectors "
         "((1/14, 1/7) vs (1/7, 1/14))"),
        ("s", ("gen_a", "a"), ("gen_b", "a"),
         "block probability vectors do not match as multisets"),
        ("sc", ("ex1", "1"), ("ex2", "1"),
         "minimal sufficient spaces differ in size (7 vs 4)"),
        ("sc", ("ex1", "5"), ("ex1", "7"),
         "laminal contours differ in size (2 vs 1)"),
        ("sc", ("ex1", "5"), ("ex1", "6"),
         "observed blocks have different conditional vectors "
         "((1/3, 2/3) vs (2/3, 1/3))"),
        ("sc", ("gen_a", "a"), ("gen_b", "a"),
         "contour conditional vectors do not match as multisets"),
    ])
    def test_reason_line(self, model_files, capsys, relation, first, second, reason):
        assert main(["compare", model_files[first[0]], model_files[second[0]],
                     "--observed1", first[1], "--observed2", second[1],
                     "--relation", relation]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["NOT-EQUIVALENT", f"obstruction: {reason}"]


class TestReproduce:
    def test_example2_passes(self, capsys):
        assert main(["reproduce", "example2"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 2 and "FAIL" not in out

    def test_example3_csv_values(self, tmp_path, capsys):
        assert main(["reproduce", "example3", "--out", str(tmp_path)]) == 0
        csv_text = (tmp_path / "figure1.csv").read_text()
        assert csv_text.splitlines()[0] == \
            "statistic,block,scenario,p_theta1,p_theta2,likelihood_ratio,decimal_lr"
        assert '"1,3,5,6",reweighted,479/1250,403/1000,1916/2015' in csv_text
        assert '"2,4",reweighted,217/2500,67/1000,434/335' in csv_text
        assert 'L,"1,2,3,4",reweighted,1/5,1/5,1,1' in csv_text

    def test_non_default_epsilon_still_passes(self, capsys):
        assert main(["reproduce", "all", "--epsilon", "3/400"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_epsilon_out_of_range_exits_2(self, capsys):
        assert main(["reproduce", "example1", "--epsilon", "1/32"]) == 2

    def test_epsilon_that_is_not_a_rational_exits_2_at_parse_time(self, capsys):
        for text in ("abc", "1/0"):
            with pytest.raises(SystemExit) as exc:
                main(["reproduce", "all", "--epsilon", text])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == "" and f"argument --epsilon: not a rational: {text!r}" in err

    def test_exceptional_epsilon_exits_2_before_any_report(self, capsys):
        # At eps = 1/224 example1 has extra ancillaries, so its reference
        # answers would FAIL; example3 does not rely on them.
        for which in ("example1", "all"):
            assert main(["reproduce", which, "--epsilon", "1/224"]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (
                f"error: reproduce {which} does not admit eps = 1/224: there "
                "1/16 + 2*eps = 1/14, so cross-pair events such as {1,5} are "
                "zero-sum and the example1 reference answers do not hold\n")
        assert main(["reproduce", "example3", "--epsilon", "1/224"]) == 0

    @pytest.mark.parametrize("which, name, wrong, label", [
        ("example1", "EX1_LAMINAL", "1,2,3,4|5,6,7", "laminal"),
        ("example2", "EX2_ROWS", ((F(1, 4),) * 4, (F(1, 4),) * 4), "distribution rows"),
        ("example3", "EX3_L_ORIGINAL", (F(1, 2), F(1, 4), F(1, 4)),
         "L distribution (original)"),
    ])
    def test_a_wrong_reference_fails_its_check_and_exits_1(
            self, monkeypatch, capsys, which, name, wrong, label):
        monkeypatch.setattr(f"laminal.cli.{name}", wrong)
        assert main(["reproduce", which]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if ln.endswith(": FAIL")] == \
            [f"reference check ({label}): FAIL"]
        at = lines.index("summary")
        assert lines[at:at + 3] == ["summary", "-------", "SOME REFERENCE CHECKS FAILED"]

    def test_determinism_across_runs(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["reproduce", "all", "--epsilon", "1/100",
                     "--out", str(out1)]) == 0
        assert main(["reproduce", "all", "--epsilon", "1/100",
                     "--out", str(out2)]) == 0
        assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()
        assert (out1 / "figure1.csv").read_bytes() == (out2 / "figure1.csv").read_bytes()


class TestAudit:
    def test_sc_audit_passes(self, capsys):
        assert main(["audit", "--relation", "sc", "--corpus-seed", "3",
                     "--corpus-size", "6"]) == 0
        out = capsys.readouterr().out
        assert "equivalence relation on this corpus: yes" in out

    def test_s_audit_passes(self, capsys):
        assert main(["audit", "--relation", "s", "--corpus-seed", "3",
                     "--corpus-size", "6"]) == 0

    def test_classical_audit_finds_the_violation(self, capsys):
        assert main(["audit", "--relation", "c", "--corpus-seed", "3",
                     "--corpus-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "equivalence relation on this corpus: NO" in out
        assert "violation witnesses found" in out

    def test_audit_report_is_deterministic(self, capsys):
        args = ["audit", "--relation", "sc", "--corpus-seed", "9",
                "--corpus-size", "5"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
