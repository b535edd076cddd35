"""The command-line surface: outputs, exit codes, JSON schema, budgets."""

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from tame3 import analysis, cli
from tame3.parsing import parse_automorphism

from fixtures import NAGATA_SOURCE, SOURCE_TEXT, P

ID_SOURCE = "x1; x2; x3\n"
SWAP_SOURCE = "word:\naffine 0 1 0 1 0 0 0 0 1 0 0 0\nx2; x1; x3\n"
WORD_SOURCE = "word: elem 1 (x2^2)\nx1 + x2^2\nx2\nx3\n"


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return _write


# -- inspection commands ------------------------------------------------------


def test_deg(write, capsys):
    assert cli.main(["deg", write("id.auto", ID_SOURCE)]) == 0
    out = capsys.readouterr().out
    assert "stratified: (0,0,1) (0,1,0) (1,0,0)" in out
    assert "total: (1,1,1)" in out

    assert cli.main(["deg", write("nagata.auto", NAGATA_SOURCE)]) == 0
    out = capsys.readouterr().out
    assert "stratified: (0,0,1) (1,0,2) (2,0,3)" in out
    assert "total: (3,0,6)" in out


def test_wedge(write, capsys):
    assert cli.main(["wedge", write("nagata.auto", NAGATA_SOURCE)]) == 0
    out = capsys.readouterr().out
    assert "deg df1^df2: (3,0,5)" in out
    assert "deg df1^df3: (2,0,4)" in out
    assert "deg df2^df3: (1,0,3)" in out


def test_two_maxima(write, capsys):
    assert cli.main(["two-maxima", write("nagata.auto", NAGATA_SOURCE)]) == 0
    out = capsys.readouterr().out
    assert "maximum (3,0,6) attained 3 times" in out


def test_parachute(write, capsys):
    path = write("nagata.auto", NAGATA_SOURCE)
    assert cli.main(["parachute", path, "--phi", "y^2"]) == 0
    out = capsys.readouterr().out
    assert "deg phi(f1): (4,0,6)" in out
    assert "multiplicity: 0" in out
    assert "holds: yes" in out


def test_parachute_rejects_bad_phi(write, capsys):
    path = write("nagata.auto", NAGATA_SOURCE)
    assert cli.main(["parachute", path, "--phi", "y^"]) == 1
    assert "--phi:" in capsys.readouterr().err


@pytest.mark.parametrize("phi", ["-y", "-x2*y"])
def test_parachute_phi_may_begin_with_a_minus(write, capsys, phi):
    path = write("nagata.auto", NAGATA_SOURCE)
    assert cli.main(["parachute", path, f"--phi={phi}"]) == 0
    expected = capsys.readouterr()
    assert cli.main(["parachute", path, "--phi", phi]) == 0
    assert capsys.readouterr() == expected


def test_compose(write, capsys):
    path = write("swap.auto", SWAP_SOURCE)
    assert cli.main(["compose", path, path]) == 0
    composed = parse_automorphism(capsys.readouterr().out)
    assert composed.components == (P((1, 1, 0, 0)), P((1, 0, 1, 0)), P((1, 0, 0, 1)))
    assert composed.witness is not None and len(composed.witness.factors) == 2


def test_vertex_eq(write, capsys):
    id_path = write("id.auto", ID_SOURCE)
    assert cli.main(["vertex-eq", id_path, write("swap.auto", SWAP_SOURCE)]) == 0
    assert capsys.readouterr().out.strip() == "equal"
    assert cli.main(["vertex-eq", id_path, write("nagata.auto", NAGATA_SOURCE)]) == 0
    assert capsys.readouterr().out.strip() == "different"


# -- reduction commands -------------------------------------------------------


def test_reduce_identity_is_a_no_op(write, capsys):
    assert cli.main(["reduce", write("id.auto", ID_SOURCE)]) == 0
    assert "identity vertex: nothing to reduce" in capsys.readouterr().out


def test_reduce_prints_one_step(write, capsys):
    assert cli.main(["reduce", write("word.auto", WORD_SOURCE)]) == 0
    out = capsys.readouterr().out
    assert "step 1: simple-elementary" in out
    assert "data: -y^2  with y = x2, z = x3" in out
    assert "degrees: (0,0,1) (0,1,0) (0,2,0)  ->  (0,0,1) (0,1,0) (1,0,0)" in out


def test_reduce_nonreducible_exits_2(write, capsys):
    assert cli.main(["reduce", write("nagata.auto", NAGATA_SOURCE)]) == 2
    out = capsys.readouterr().out
    assert "no reduction found for degrees (0,0,1) (1,0,2) (2,0,3)" in out


def test_path_text_output(write, capsys):
    assert cli.main(["path", write("word.auto", WORD_SOURCE)]) == 0
    out = capsys.readouterr().out
    assert "step 1:" in out
    assert "terminal: (0,0,1) (0,1,0) (1,0,0)  (identity)" in out


def test_path_nonreducible_exits_2(write, capsys):
    assert cli.main(["path", write("nagata.auto", NAGATA_SOURCE)]) == 2
    assert "no reduction found" in capsys.readouterr().out


def test_path_json_schema(write, capsys):
    assert cli.main(["path", write("word.auto", WORD_SOURCE), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"input", "steps", "terminal", "degrees"}
    assert doc["input"] == ["x2^2 + x1", "x2", "x3"]
    assert doc["degrees"] == [[0, 0, 1], [0, 1, 0], [0, 2, 0]]
    assert len(doc["steps"]) == 1
    step = doc["steps"][0]
    assert set(step) == {
        "kind",
        "source",
        "target",
        "center",
        "pivot",
        "data",
        "auxiliary",
        "evidence",
        "strict",
    }
    assert step["kind"] == "simple-elementary"
    assert step["strict"] is True
    assert step["auxiliary"] is None and step["evidence"] is None
    assert step["data"] == [[2, 0, "-1"]]
    assert step["pivot"] == {"representative": "x2"}
    assert step["source"]["degrees"] == [[0, 0, 1], [0, 1, 0], [0, 2, 0]]
    assert doc["terminal"]["representative"] == ["x3", "x2", "x1"]


def test_path_json_failure_carries_report(write, capsys):
    assert cli.main(["path", write("nagata.auto", NAGATA_SOURCE), "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["steps"] == [] and doc["terminal"] is None
    assert doc["degrees"] == [[0, 0, 1], [1, 0, 2], [2, 0, 3]]
    assert doc["report"]["attempts"]


def test_path_json_reads_degrees_without_building_the_vertex_again(
    write, capsys, monkeypatch
):
    # the input was checked on loading and by the path itself; its degrees
    # are read off the good representative, with no second df1∧df2∧df3
    path = write("word.auto", WORD_SOURCE)
    assert cli.main(["path", path, "--json"]) == 0
    expected = capsys.readouterr().out

    def built(components):
        raise AssertionError("vertex3 was called")

    monkeypatch.setattr(cli, "vertex3", built)
    assert cli.main(["path", path, "--json"]) == 0
    assert capsys.readouterr().out == expected


def test_deg_reads_degrees_without_building_the_vertex_again(
    write, capsys, monkeypatch
):
    # loading checked the Jacobian; the degrees are read off the good
    # representative, with no df1∧df2∧df3
    path = write("nagata.auto", NAGATA_SOURCE)
    assert cli.main(["deg", path]) == 0
    expected = capsys.readouterr().out

    def built(components):
        raise AssertionError("vertex3 was called")

    monkeypatch.setattr(cli, "vertex3", built)
    assert cli.main(["deg", path]) == 0
    assert capsys.readouterr().out == expected


def test_closed_output_pipe_exits_0_quietly(write):
    # `tame3 path --json F | head -1`: the reader can be gone before the
    # child writes.  Closing the read end before the child starts makes the
    # refused write certain instead of a race with the reader.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    path = write("word.auto", WORD_SOURCE)
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tame3.cli", "path", "--json", path],
            stdout=w, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(w)
    assert proc.returncode == 0
    assert proc.stderr == b""


def test_certify_nontame(write, capsys):
    assert cli.main(["certify-nontame", write("nagata.auto", NAGATA_SOURCE)]) == 0
    out = capsys.readouterr().out
    assert "degrees: (0,0,1) (1,0,2) (2,0,3)" in out
    assert "pairwise independent strata: (1,2) (1,3) (2,3)" in out
    assert "no stratum is a natural combination of the others: 1 2 3" in out
    assert "no K-move pairing: stratum (0, 0, 1) is not twice an integral degree" in out

    assert cli.main(["certify-nontame", write("id.auto", ID_SOURCE)]) == 0
    out = capsys.readouterr().out
    assert "no certificate: degree arithmetic does not rule out a tame word" in out


# -- generation ---------------------------------------------------------------


def test_gen_is_deterministic_and_parseable(capsys):
    assert cli.main(["gen", "--seed", "3", "--len", "4"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["gen", "--seed", "3", "--len", "4"]) == 0
    assert capsys.readouterr().out == first
    f = parse_automorphism(first)
    assert f.witness is not None


def test_gen_rejects_bad_spec(capsys):
    assert cli.main(["gen", "--seed", "0", "--len", "-1"]) == 1
    assert capsys.readouterr().err.startswith("tame3:")


# -- budgets ------------------------------------------------------------------


def test_budget_env_variable(write, capsys, monkeypatch):
    path = write("word.auto", WORD_SOURCE)
    monkeypatch.setenv("TAME3_BUDGET", "2")
    assert cli.main(["path", path]) == 0
    capsys.readouterr()
    monkeypatch.setenv("TAME3_BUDGET", "zz")
    assert cli.main(["path", path]) == 1
    assert "TAME3_BUDGET must be an integer" in capsys.readouterr().err
    # the flag wins over the environment
    monkeypatch.setenv("TAME3_BUDGET", "zz")
    assert cli.main(["path", path, "--budget", "1"]) == 0


def test_budget_must_be_positive(write, capsys):
    assert cli.main(["reduce", write("word.auto", WORD_SOURCE), "--budget", "0"]) == 1
    assert "budget factor must be positive" in capsys.readouterr().err


# -- errors and usage ---------------------------------------------------------


def test_input_errors_exit_1(write, capsys):
    bad = write("bad.auto", "x1 + x9\nx2\nx3\n")
    assert cli.main(["deg", bad]) == 1
    err = capsys.readouterr().err
    assert "bad.auto" in err and err.startswith("tame3:")
    assert cli.main(["deg", str(write("d", "")[:-1]) + "/missing.auto"]) == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, where, message",
    [
        ("x1 + ²; x2; x3", "1:6", "unexpected character '²'"),
        ("x1 + 1/²; x2; x3", "1:7", "unexpected character '/'"),
        ("x1 + " + "1" * 5000 + "; x2; x3", "1:6", "number literal longer than"),
        ("x1 + 1/" + "7" * 5000 + "; x2; x3", "1:6", "number literal longer than"),
        ("(" * 300 + "x1" + ")" * 300 + "; x2; x3", "1:201", "over 200 nested"),
        ("(" * 10_000 + "x1" + ")" * 10_000 + "; x2; x3", "1:201", "over 200 nested"),
        ("x1; x2; x3" + "^2" * 10_000, "1:20004", "degree cap"),
        ("x1 + x2^2; x3; x2^", "1:19", "expected 'int', found end of input"),
        ("word:\naffine 1 0 0 0 1 0 0 0 1 1e999999999 0 0\nx1\nx2\nx3", "2:26", "bad rational"),
    ],
    ids=[
        "superscript", "superscript-denominator", "long-int", "long-denominator",
        "nest-300", "nest-10000", "tower-10000", "repeated-chunk", "affine-exponent",
    ],
)
def test_malformed_text_exits_1_at_its_position(write, capsys, text, where, message):
    path = write("bad.auto", text)
    assert cli.main(["deg", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"tame3: {path}:{where}: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    ["-" * 10_000 + "x1; x2; x3", "x1" + "^1" * 10_000 + "; x2; x3"],
    ids=["minus-10000", "tower-10000"],
)
def test_long_minus_runs_and_towers_load(write, capsys, text):
    assert cli.main(["deg", write("long.auto", text)]) == 0
    assert "total: (1,1,1)" in capsys.readouterr().out


@settings(max_examples=300, deadline=None)
@given(SOURCE_TEXT)
def test_every_text_exits_0_or_1_with_one_message(text):
    """The exit-code contract on arbitrary file text and --phi text: no
    traceback, and an input error is one `tame3:` line on stderr.
    `--phi=TEXT` keeps argparse from reading a leading '-' as an option."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "any.auto")
        Path(path).write_text(text, encoding="utf-8")
        for argv in (["deg", path], ["parachute", path, f"--phi={text}"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 1), argv
            if code == 1:
                assert err.getvalue().startswith("tame3:"), err.getvalue()
                assert err.getvalue().count("\n") == 1, err.getvalue()


def test_mismatching_witness_exits_1(write, capsys):
    # the word x1 ↦ x1 + x2² is checked, but it evaluates to other components
    path = write("mismatch.auto", "word: elem 1 (x2^2)\nx1 + x2^3\nx2\nx3\n")
    assert cli.main(["deg", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"tame3: {path}: declared word does not evaluate to the components\n"


@pytest.mark.parametrize("command", ["certify-nontame", "path", "reduce", "deg"])
def test_non_automorphism_exits_1(write, capsys, command):
    # independent components, but the Jacobian 2·x1 is not a constant
    path = write("square.auto", "x1^2; x2; x3\n")
    assert cli.main([command, path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("tame3:") and "Jacobian" in captured.err


def test_theorem_violation_exits_1(write, capsys, monkeypatch):
    path = write("nagata.auto", NAGATA_SOURCE)
    monkeypatch.setattr(analysis.ParachuteReport, "holds", property(lambda r: False))
    monkeypatch.setattr(analysis.TwoMaximaReport, "ok", property(lambda r: False))
    assert cli.main(["parachute", path, "--phi", "y^2"]) == 1
    assert "Parachute Inequality violated" in capsys.readouterr().err
    assert cli.main(["two-maxima", path]) == 1
    assert "Principle of Two Maxima violated" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()
    assert cli.main(["reduce"]) == 1
    capsys.readouterr()
    assert cli.main([]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tame3")


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert "deg" in capsys.readouterr().out


# -- regression guard ---------------------------------------------------------

# SHA-256 of the runs below, frozen from the code before independence gained
# its residue fast path.  A regression guard, not an oracle: when a change
# means to alter output, re-derive it and say why.
CLI_OUTPUT_DIGEST = "ebf55dbdbb38e43c068d084dcb26630a4e6470e5cdf145e67febcacf66e23942"


def test_cli_output_digest(tmp_path, capsys, monkeypatch):
    """Exit code, stdout and stderr of the reduction and degree commands on
    the golden fixtures and six generated words stay byte-identical."""
    from fixtures import CUBIC, QUINTIC
    from tame3.parsing import format_automorphism

    monkeypatch.chdir(tmp_path)  # relative names keep messages path-free
    # parse each file once: parsing dominates a load, and every command
    # below would otherwise repeat it on the same bytes
    monkeypatch.setattr(cli, "_load", functools.lru_cache(maxsize=None)(cli._load))
    names = []
    for name, text in (
        ("cubic", format_automorphism(CUBIC)),
        ("quintic", format_automorphism(QUINTIC)),
        ("nagata", NAGATA_SOURCE),
    ):
        Path(f"{name}.auto").write_text(text, encoding="utf-8")
        names.append(f"{name}.auto")
    for seed in range(6):
        assert cli.main(["gen", "--seed", str(seed), "--len", "8"]) == 0
        Path(f"gen{seed}.auto").write_text(capsys.readouterr().out, encoding="utf-8")
        names.append(f"gen{seed}.auto")
    digest = hashlib.sha256()
    for i, name in enumerate(names):
        other = names[(i + 1) % len(names)]
        for argv in (
            ["path", name, "--json"],
            ["reduce", name],
            ["deg", name],
            ["certify-nontame", name],
            ["vertex-eq", name, other],
        ):
            code = cli.main(argv)
            out = capsys.readouterr()
            for part in (" ".join(argv), str(code), out.out, out.err):
                digest.update(part.encode() + b"\0")
    assert digest.hexdigest() == CLI_OUTPUT_DIGEST


# Malformed files whose messages and positions this digest pins.  Their
# exit code and stderr are hashed in order; the digest was frozen from the
# character-loop tokenizer, so it guards the regex scanner against drift.
MALFORMED_FILES = (
    "x4; x2; x3",
    "x1 + y; x2; x3",
    "x1/2; x2; x3",
    "x1 +; x2; x3",
    "(x1; x2; x3",
    "x1^x2; x2; x3",
    "x1 @ x2; x2; x3",
    "1/0; x2; x3",
    "x1 +\n x2 *\nx3",
    "x1^20000; x2; x3",
    "x1^2^100; x2; x3",
    "x1; x2; 2^2^2^2^2",
    "x1; x2",
    "x1; x2; x3; x1",
    "",
    "# only a comment\n",
    "x1; x1; x3",
    "x1^2; x2; x3",
    "word: elem 1 (x2^2)\nx1\nx2\nx3",
    "word: elem 1 (x4)\nx1\nx2\nx3",
    "word: elem 1 (x1)\nx1\nx2\nx3",
    "word:\nelem 4 (x1)\nx1\nx2\nx3",
    "word:\nelem x (x2)\nx1\nx2\nx3",
    "word:\nelem 1 x2\nx1\nx2\nx3",
    "word:\naffine 1 0 0\nx1\nx2\nx3",
    "word:\naffine 1 0 0 0 1 0 0 0 zz 0 0 0\nx1\nx2\nx3",
    "word:\naffine 1 0 0 0 1 0 0 0 1 0 0 0 0\nx1\nx2\nx3",
    "word:\naffine 0 0 0 0 0 0 0 0 0 0 0 0\nx1\nx2\nx3",
    "word:\naffine -1 0 0 0 1 0 0 0 1 +1/2 0 0\nx1\nx2\nx3",
    "word:  affine 1 0 0 0 1 0 0 0 1 0 0 0 x\nx1\nx2\nx3",
    "x1\nx2\nx3 + x9",
    "x1 + ½; x2; x3",
    "x1 + 1/½; x2; x3",
    "x1 + ٣/0; x2; x3",
    "_x; x2; x3",
    "x1 x2; x2; x3",
    "x1 ** 2; x2; x3",
    "x1^-1; x2; x3",
    "x1^1/2; x2; x3",
    ")x1; x2; x3",
    "x1 + 1/2/3; x2; x3",
    "x1\t+\tx2 x3; x2; x3",
    "x1\n\n# gap\nx2\nx3 +  # trailing\n",
    "x1; x2;\r\nx3 +",
)
PARSE_ERROR_DIGEST = "55f6aad96bf4dc461b1246c4138d8f56f17eed2d6c9772b217bbeab0c349bae5"


def test_parse_error_digest(tmp_path, capsys, monkeypatch):
    """Exit code and stderr of `deg` on malformed files stay byte-identical."""
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for i, text in enumerate(MALFORMED_FILES):
        name = f"bad{i}.auto"
        Path(name).write_text(text, encoding="utf-8")
        code = cli.main(["deg", name])
        err = capsys.readouterr().err
        assert code == 1, (text, err)
        digest.update(f"{code}\0{err}\0".encode())
    assert digest.hexdigest() == PARSE_ERROR_DIGEST
