import math
import random

from conftest import random_noncrossing_digraph
from ncdigraph.cli import run
from ncdigraph.fileio import format_digraph, parse_digraph


def invoke(capsys, *argv):
    status = run(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def test_encode_digraph_fixture(tmp_path, capsys):
    f = tmp_path / "g.dg"
    f.write_text("n 4\n1 2\n2 2\n4 1\n4 2\n")
    status, out, _ = invoke(capsys, "encode", "--digraph", str(f))
    assert status == 0
    assert out.strip() == "</{}><[]{}{}\\\\"


def test_encode_graph_fixture(tmp_path, capsys):
    f = tmp_path / "g.dg"
    f.write_text("n 4\n1 2\n2 2\n4 1\n4 2\n")
    status, out, _ = invoke(capsys, "encode", str(f))
    assert status == 0
    assert out.strip() == "[[{}][[]{}{}]]"


def test_decode_empty_digraph(capsys):
    status, out, _ = invoke(capsys, "decode", "--digraph", "")
    assert status == 0
    assert out == "n 1\n"


def test_decode_round_trip(capsys):
    status, out, _ = invoke(capsys, "decode", "--digraph", "</{}><[]{}{}\\\\")
    assert status == 0
    assert parse_digraph(out).arcs == frozenset(
        {(1, 2), (2, 2), (4, 1), (4, 2)})


def test_decode_rejects_strings_no_digraph_encodes_to(capsys):
    for argv in (("--digraph", "//{}>>"), ("--digraph", "/>"),
                 ("--digraph", "<\\"), ("[[{}]]",)):
        status, out, err = invoke(capsys, "decode", *argv)
        assert status == 1, argv
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


def test_classify(tmp_path, capsys):
    f = tmp_path / "g.dg"
    f.write_text("n 3\n1 2\n2 3\n")
    status, out, _ = invoke(capsys, "classify", str(f))
    assert status == 0
    lines = out.strip().splitlines()
    assert "noncrossing: yes" in lines
    assert "OUT" in lines and "ACYC_D" in lines


def test_classify_rejects_self_loop(tmp_path, capsys):
    # the properties are defined on loop-free digraphs
    f = tmp_path / "loop.dg"
    f.write_text("n 3\n1 2\n2 2\n")
    status, out, err = invoke(capsys, "classify", str(f))
    assert status == 1
    assert out == ""
    assert err.startswith("error: self-loop")


def test_count_n5(capsys):
    status, out, _ = invoke(capsys, "count", "-n", "5")
    assert status == 0
    assert out.strip() == "62464"


def test_count_tree_family_past_enumeration(capsys):
    # out-trees on 8 vertices: 8 roots times T(8) = C(21, 7)/15 noncrossing
    # spanning trees
    status, out, _ = invoke(capsys, "count", "-n", "8", "--family", "out-tree")
    assert status == 0
    assert int(out) == 8 * (math.comb(21, 7) // 15)
    status, out, err = invoke(capsys, "count", "-n", "0")
    assert status == 1
    assert out == ""
    assert err.startswith("error:")


def test_count_equals_enumerate_length(capsys):
    status, out, _ = invoke(capsys, "enumerate", "-n", "3",
                            "--family", "ACYC_D")
    assert status == 0
    lines = [l for l in out.splitlines() if l]
    status, out, _ = invoke(capsys, "count", "-n", "3", "--family", "ACYC_D")
    assert int(out.strip()) == len(lines)


def test_enumerate_count_only(capsys):
    status, out, _ = invoke(capsys, "enumerate", "-n", "4", "--count-only")
    assert status == 0
    assert out.strip() == "1792"


def test_enumerate_count_only_counts_on_the_chart(capsys):
    # out-trees on 7 vertices: 7 roots times T(7) = C(18, 6)/13; the
    # enumeration would walk about 10^8 digraphs
    status, out, _ = invoke(capsys, "enumerate", "-n", "7", "--family",
                            "out-tree", "--count-only")
    assert status == 0
    assert int(out) == 7 * (math.comb(18, 6) // 13) == 9996
    status, out, _ = invoke(capsys, "enumerate", "-n", "3", "--count-only")
    assert status == 0
    assert out.strip() == "64"


def test_enumerate_latent(capsys):
    status, out, _ = invoke(capsys, "enumerate", "-n", "2", "--latent")
    assert status == 0
    assert out.splitlines() == ["{}", "/F'{}>F'", "<f'{}\\f'", "[I'{}]I'"]


def test_lattice_tsv(capsys):
    status, out, _ = invoke(capsys, "lattice", "-n", "3")
    assert status == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert sum(int(r[1]) for r in rows) == 64
    assert all(len(r[0]) == 6 for r in rows)


def test_parse_command(tmp_path, capsys):
    f = tmp_path / "w.txt"
    f.write_text("n 3\n1 2 5\n2 3 4\n2 1 3\n")
    status, out, _ = invoke(capsys, "parse", "--weights", str(f),
                            "--family", "out-tree")
    assert status == 0
    assert out.endswith("weight 9\n")


def test_parse_empty_family_exit_2(tmp_path, capsys):
    f = tmp_path / "w.txt"
    f.write_text("n 2\n1 2 5\n")
    status, _, err = invoke(capsys, "parse", "--weights", str(f),
                            "--family", "CONN_W,INV,ORIENTED")
    assert status == 2
    assert "no parse" in err


def test_parse_weights_without_vertices_exit_1(tmp_path, capsys):
    f = tmp_path / "w.txt"
    for first in ("n 0", "n -2"):
        f.write_text(first + "\n")
        status, out, err = invoke(capsys, "parse", "--weights", str(f))
        assert status == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


def test_parse_weights_bad_entry_exit_1(tmp_path, capsys):
    f = tmp_path / "w.txt"
    for line, why in (("2 2 1", "diagonal"), ("1 2 -1", "nonnegative"),
                      ("1 4 1", "out of range"), ("1 2 1/0", "decimal"),
                      ("1 2 1e999999999", "decimal"), ("1 2 nan", "decimal")):
        f.write_text("n 3\n" + line + "\n")
        status, out, err = invoke(capsys, "parse", "--weights", str(f))
        assert status == 1
        assert out == ""
        assert err.startswith("error:") and why in err


def test_parse_weights_repeated_line_exit_1(tmp_path, capsys):
    f = tmp_path / "w.txt"
    f.write_text("n 3\n1 2 3\n2 3 1\n1 2 5\n")
    status, out, err = invoke(capsys, "parse", "--weights", str(f))
    assert status == 1
    assert out == ""
    assert err.startswith("error: repeated") and "1 2 5" in err


def test_parse_lexicon_repeated_vertex_exit_1(tmp_path, capsys):
    w = tmp_path / "w.txt"
    w.write_text("n 3\n1 2 5\n")
    lex = tmp_path / "lex.txt"
    lex.write_text("1 out-right\n2 bidir\n1 in-left,bidir\n")
    status, out, err = invoke(capsys, "parse", "--weights", str(w),
                              "--lexicon", str(lex))
    assert status == 1
    assert out == ""
    assert err.startswith("error: repeated") and "1 in-left,bidir" in err


def test_parse_lexicon_vertex_out_of_range_exit_1(tmp_path, capsys):
    w = tmp_path / "w.txt"
    w.write_text("n 3\n1 2 5\n")
    lex = tmp_path / "lex.txt"
    lex.write_text("7 out-left\n")
    status, out, err = invoke(capsys, "parse", "--weights", str(w),
                              "--lexicon", str(lex))
    assert status == 1
    assert out == ""
    assert err.startswith("error:") and "7" in err


def test_malformed_input_exit_1(tmp_path, capsys):
    f = tmp_path / "bad.dg"
    f.write_text("not a digraph\n")
    status, _, err = invoke(capsys, "classify", str(f))
    assert status == 1
    assert err


def test_cli_round_trip_random(tmp_path, capsys):
    rng = random.Random(21)
    for _ in range(25):
        g = random_noncrossing_digraph(rng, 6)
        f = tmp_path / "g.dg"
        f.write_text(format_digraph(g))
        status, out, _ = invoke(capsys, "encode", "--digraph", str(f))
        assert status == 0
        status, out2, _ = invoke(capsys, "decode", "--digraph", out.strip())
        assert status == 0
        assert parse_digraph(out2) == g
