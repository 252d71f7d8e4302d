import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import possbox
from possbox import Chain, PBox, cli, oracle, pbox_to_possibility, verify
from possbox.cli import main

P2_DOC = {
    "classes": [["a"], ["b"], ["c"]],
    "lower": ["1/5", "2/5", "1"],
    "upper": ["1/2", "4/5", "1"],
}
P1_DOC = {
    "classes": [["a"], ["b"], ["c"]],
    "lower": ["0", "0", "1"],
    "upper": ["1/2", "4/5", "1"],
}
TWO_POINT_PI = {"pi": {"x1": "1/2", "x2": "1"}}
MARGINALS_DOC = {
    "marginals": [
        {"u": "1/2", "v": "1"},
        {"s": "3/10", "t": "1"},
    ]
}


@pytest.fixture
def write_doc(tmp_path):
    def _write(doc, name="doc.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(argv, timeout=60, **env):
    """``python -m possbox.cli`` in a fresh process, with a time limit."""
    source = str(Path(possbox.__file__).resolve().parents[1])
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "possbox.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_upper_json_exact_bytes(write_doc, capsys):
    path = write_doc(P1_DOC)
    code, out, err = run(capsys, "upper", "--input", path, "--event", "a,c", "--json")
    assert code == 0
    assert out == '{"upper":"1"}\n'
    assert err == ""


def test_upper_text_output(write_doc, capsys):
    path = write_doc(P1_DOC)
    code, out, _ = run(capsys, "upper", "--input", path, "--event", "b")
    assert code == 0
    assert out == "upper = 4/5\n"


def test_upper_empty_event(write_doc, capsys):
    path = write_doc(P1_DOC)
    code, out, _ = run(capsys, "upper", "--input", path, "--event", "", "--json")
    assert code == 0
    assert out == '{"upper":"0"}\n'


def test_complement_flag(write_doc, capsys):
    path = write_doc(P1_DOC)
    code, out, _ = run(
        capsys, "upper", "--input", path, "--event", "b", "--complement", "--json"
    )
    assert code == 0
    assert out == '{"upper":"1"}\n'


def test_lower_json(write_doc, capsys):
    path = write_doc(P1_DOC)
    code, out, _ = run(capsys, "lower", "--input", path, "--event", "c", "--json")
    assert code == 0
    assert out == '{"lower":"1/5"}\n'


def test_is_maxitive(write_doc, capsys):
    path = write_doc(P1_DOC)
    code, out, _ = run(capsys, "is-maxitive", "--input", path, "--json")
    assert (code, out) == (0, '{"maxitive":true}\n')
    path = write_doc(P2_DOC)
    code, out, _ = run(capsys, "is-maxitive", "--input", path, "--json")
    assert (code, out) == (0, '{"maxitive":false}\n')


def test_to_possibility(write_doc, capsys):
    path = write_doc(P1_DOC)
    code, out, _ = run(capsys, "to-possibility", "--input", path, "--json")
    assert code == 0
    assert out == '{"pi":{"a":"1/2","b":"4/5","c":"1"}}\n'


def test_to_possibility_failure_is_not_an_error(write_doc, capsys):
    path = write_doc(P2_DOC)
    code, out, _ = run(capsys, "to-possibility", "--input", path, "--json")
    assert (code, out) == (0, '{"pi":null}\n')
    code, out, _ = run(capsys, "to-possibility", "--input", path)
    assert (code, out) == (0, "not a possibility measure\n")


def test_distributions_have_one_writer(write_doc, capsys):
    assert cli.pi_document is verify.pi_document
    # Tied classes listed out of label order: the document follows the chain.
    doc = {"classes": [["b", "a"], ["c"], ["e", "d"]], "lower": ["0", "0", "1"], "upper": ["1/3", "3/4", "1"]}
    box = PBox(Chain(doc["classes"]), doc["lower"], doc["upper"])
    code, out, _ = run(capsys, "to-possibility", "--input", write_doc(doc), "--json")
    expected = {"pi": verify.pi_document(pbox_to_possibility(box))}
    assert (code, out) == (0, json.dumps(expected, separators=(",", ":")) + "\n")
    assert list(expected["pi"]) == ["a", "b", "c", "d", "e"]


def test_from_possibility(write_doc, capsys):
    path = write_doc(TWO_POINT_PI)
    code, out, _ = run(capsys, "from-possibility", "--input", path, "--json")
    assert code == 0
    assert (
        out
        == '{"classes":[["x1"],["x2"]],"lower":["0","1"],"upper":["1/2","1"]}\n'
    )


def test_decompose(write_doc, capsys):
    path = write_doc(P2_DOC)
    code, out, _ = run(capsys, "decompose", "--input", path, "--json")
    assert code == 0
    assert json.loads(out) == {
        "pi1": {"a": "1", "b": "4/5", "c": "3/5"},
        "pi2": {"a": "1/2", "b": "4/5", "c": "1"},
    }


def test_bounds(write_doc, capsys):
    path = write_doc(P2_DOC)
    code, out, _ = run(capsys, "bounds", "--input", path, "--event", "b", "--json")
    assert code == 0
    assert json.loads(out) == {
        "approx_lower": "0",
        "lower": "0",
        "upper": "3/5",
        "approx_upper": "4/5",
    }


def test_joint_rules(write_doc, capsys):
    path = write_doc(MARGINALS_DOC)
    code, out, _ = run(capsys, "joint", "--input", path, "--rule", "independent", "--json")
    assert code == 0
    assert json.loads(out) == {
        "rule": "independent",
        "pi": {"u|s": "1/4", "u|t": "1", "v|s": "1", "v|t": "1"},
    }
    code, out, _ = run(capsys, "joint", "--input", path, "--rule", "rsi", "--json")
    assert code == 0
    assert json.loads(out)["pi"]["u|s"] == "51/100"


def test_joint_refuses_labels_holding_the_key_separator(write_doc, capsys):
    # The four points (a, c), (a, b|c), (a|b, c), (a|b, b|c) would print as
    # three keys, since a|b|c stands for two of them.
    doc = {"marginals": [{"a|b": "1", "a": "1/2"}, {"c": "1", "b|c": "1"}]}
    path = write_doc(doc)
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "joint", "--input", path, "--rule", "frechet", *extra)
        assert (code, out) == (2, "")
        assert err == "error: marginal 0 label 'a|b' contains '|', the separator of point keys\n"
    code, out, _ = run(capsys, "validate", "--input", path)
    assert (code, out) == (0, "valid: marginals\n")


def test_validate(write_doc, capsys):
    path = write_doc(P1_DOC)
    code, out, _ = run(capsys, "validate", "--input", path)
    assert (code, out) == (0, "valid: pbox\n")
    path = write_doc(MARGINALS_DOC)
    code, out, _ = run(capsys, "validate", "--input", path, "--json")
    assert (code, out) == (0, '{"valid":true,"models":["marginals"]}\n')


def test_verify_command(write_doc, capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "conjunction", "--max-classes", "2", "--grid", "2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["suite"] == "conjunction"
    assert payload["cases"] > 0


@pytest.mark.parametrize(
    "flag, value",
    [("--max-classes", "0"), ("--max-classes", "-1"), ("--grid", "0"), ("--grid", "-3")],
)
def test_verify_rejects_sizes_below_one(capsys, flag, value):
    code, out, err = run(capsys, "verify", "--suite", "oracle", flag, value)
    assert (code, out) == (2, "")
    knob = {"--max-classes": "max_classes", "--grid": "grid_den"}[flag]
    assert err == f"error: {knob} must be at least 1 (got {value})\n"


@pytest.mark.parametrize("suite, ceiling", [("maxitive", "MAX_CLASSES"), ("conjunction", "MAX_ELEMENTS")])
def test_verify_refuses_sizes_past_the_oracle_ceiling_up_front(capsys, monkeypatch, suite, ceiling):
    # A lowered ceiling keeps the run at the ceiling short.
    monkeypatch.setattr(oracle, ceiling, 2)
    code, out, _ = run(capsys, "verify", "--suite", suite, "--max-classes", "2", "--grid", "2")
    assert code == 0 and f"suite {suite}: ok" in out

    def no_sweep(*args):
        raise AssertionError("the suite started sweeping")

    monkeypatch.setattr(verify, "_grid_boxes", no_sweep)
    code, out, err = run(capsys, "verify", "--suite", suite, "--max-classes", "3", "--grid", "1")
    assert (code, out) == (2, "")
    assert err == f"error: the {suite} suite takes at most 2 classes (got 3)\n"


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(P1_DOC)))
    code, out, _ = run(capsys, "upper", "--event", "a", "--json")
    assert (code, out) == (0, '{"upper":"1/2"}\n')


def test_reruns_are_byte_identical(write_doc, capsys):
    path = write_doc(P2_DOC)
    first = run(capsys, "decompose", "--input", path, "--json")
    second = run(capsys, "decompose", "--input", path, "--json")
    assert first == second


def test_usage_errors_exit_2(write_doc, capsys, tmp_path):
    path = write_doc(P1_DOC)

    code, _, err = run(capsys, "upper", "--input", path, "--json")
    assert code == 2 and "--event" in err

    code, _, err = run(capsys, "upper", "--input", path, "--event", "z", "--json")
    assert code == 2 and "z" in err

    broken = tmp_path / "broken.json"
    broken.write_text('{"classes": [', encoding="utf-8")
    code, _, err = run(capsys, "validate", "--input", str(broken))
    assert code == 2 and "line" in err

    empty = tmp_path / "empty.json"
    empty.write_text("{}", encoding="utf-8")
    code, _, err = run(capsys, "validate", "--input", str(empty))
    assert code == 2

    code, _, err = run(capsys, "upper", "--input", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read" in err

    bad_box = dict(P1_DOC, lower=["0", "0"])
    path = write_doc(bad_box, "bad.json")
    code, _, err = run(capsys, "upper", "--input", path, "--event", "a")
    assert code == 2 and "bad probability box" in err


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"classes": [[["a"]]], "lower": ["1"], "upper": ["1"]},
            'error: every label in "classes" must be a string\n',
        ),
        (
            {"classes": [[1], [2]], "lower": ["0", "1"], "upper": ["1", "1"]},
            'error: every label in "classes" must be a string\n',
        ),
        (
            {"classes": [["a"], ["b"]], "lower": [False, True], "upper": ["1", "1"]},
            "error: bad probability box: refusing bool False:"
            " pass an int, Fraction, or string like '4/5' or '0.8'\n",
        ),
    ],
    ids=["list-label", "int-label", "bool-value"],
)
def test_non_string_labels_and_booleans_exit_2(write_doc, capsys, doc, message):
    path = write_doc(doc)
    code, out, err = run(capsys, "upper", "--input", path, "--event", "a")
    assert (code, out, err) == (2, "", message)


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, line",
    [
        (["upper", "--bogus"], "error: unrecognized arguments: --bogus"),
        (["verify", "--suite", "oracle", "--grid", "x"], "error: argument --grid: invalid int value: 'x'"),
        (["verify", "--suite", "bogus"], "error: argument --suite: invalid choice: 'bogus'"),
        (["joint"], "error: the following arguments are required: --rule"),
        ([], "error: the following arguments are required: command"),
        (["upper", "--bo\ngus"], "error: unrecognized arguments: --bo gus\n"),
        (["verify", "--suite", "oracle", "--input", "x"], "error: unrecognized arguments: --input x\n"),
    ],
    ids=[
        "unknown-flag",
        "non-int-grid",
        "unknown-suite",
        "joint-without-rule",
        "no-command",
        "newline-in-flag",
        "verify-reads-no-document",
    ],
)
def test_argv_errors_print_one_line(capsys, argv, line):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith(line)


LONG_RUN = "x" * 5000


@pytest.mark.parametrize(
    "argv, line",
    [
        (["upper", "--" + LONG_RUN], "error: unrecognized arguments: --" + "x" * 38 + "... (5002 characters)"),
        (
            ["verify", "--suite", "oracle", "--grid", LONG_RUN],
            "error: argument --grid: invalid int value: '" + "x" * 39 + "... (5002 characters)",
        ),
    ],
    ids=["long-flag", "long-grid-value"],
)
def test_argv_errors_cut_long_runs_like_input_errors(capsys, argv, line):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out, err) == (2, "", line + "\n")
    assert len(err.encode()) < 120


@pytest.mark.parametrize(
    "doc, command, json_out",
    [
        (
            {"classes": [["\ud800"], ["b"]], "lower": ["0", "1"], "upper": ["1", "1"]},
            "to-possibility",
            '{"pi":{"\\ud800":"1","b":"1"}}\n',
        ),
        (
            {"pi": {"\ud800": "1"}},
            "from-possibility",
            '{"classes":[["\\ud800"]],"lower":["1"],"upper":["1"]}\n',
        ),
    ],
    ids=["to-possibility", "from-possibility"],
)
def test_output_stdout_cannot_encode_exits_2(write_doc, doc, command, json_out):
    # A real process, so the text goes through stdout's strict encoder.
    path = write_doc(doc)
    done = run_process([command, "--input", path], PYTHONIOENCODING="utf-8")
    line = "error: stdout (utf-8) cannot encode '\\ud800'; use --json\n"
    assert (done.returncode, done.stdout, done.stderr) == (2, "", line)
    done = run_process([command, "--input", path, "--json"], PYTHONIOENCODING="utf-8")
    assert (done.returncode, done.stdout, done.stderr) == (0, json_out, "")


@pytest.mark.parametrize(
    "doc, argv, line",
    [
        (
            {"classes": [["a", "b"], ["c", "b", "a"]], "lower": ["0", "1"], "upper": ["1", "1"]},
            ["validate"],
            "error: bad \"classes\": label 'b' appears in more than one class",
        ),
        (
            {"classes": [["x"], ["y"]], "lower": ["1/2", "1"], "upper": ["1", "1"]},
            ["upper", "--event", "a,c,d"],
            "error: unknown label 'a'",
        ),
    ],
    ids=["validate", "upper"],
)
def test_error_line_names_the_first_offender_under_any_hash_seed(write_doc, doc, argv, line):
    path = write_doc(doc)
    for seed in ("0", "1", "2", "3"):
        done = run_process([*argv, "--input", path], PYTHONHASHSEED=seed)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", line + "\n"), seed


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize(
    "raw, line",
    [
        (b"\xff\xfe", "error: unreadable document: 'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100_000 + b"]" * 100_000, "error: unreadable document: maximum recursion depth"),
        (b'{"pi": {"a": ' + b"1" * 5000 + b"}}", "error: unreadable document: Exceeds the limit"),
    ],
    ids=["not-utf8", "nested", "long-integer"],
)
def test_unreadable_documents_exit_2(capsys, monkeypatch, tmp_path, source, raw, line):
    argv = ["validate"]
    if source == "file":
        path = tmp_path / "doc.json"
        path.write_bytes(raw)
        argv += ["--input", str(path)]
    else:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    code, out, err = run(capsys, *argv)
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith(line)


@pytest.mark.parametrize(
    "doc, reason",
    [
        ({"pi": {"a": "1e-99999999", "b": "1"}}, "length or exponent over 1000"),
        (
            {"classes": [["a"], ["b"]], "lower": ["1e400", "1"], "upper": ["1", "1"]},
            "(401 characters) outside [0, 1]",
        ),
        (
            {"classes": [["a"], ["b"]], "lower": ["1e5000", "1"], "upper": ["1", "1"]},
            "length or exponent over 1000",
        ),
    ],
    ids=["tiny-pi", "lower-1e400", "lower-1e5000"],
)
def test_giant_decimals_exit_2_fast_with_a_short_line(write_doc, doc, reason):
    done = run_process(["validate", "--input", write_doc(doc)], timeout=10)
    assert (done.returncode, done.stdout, done.stderr.count("\n")) == (2, "", 1)
    assert done.stderr.startswith("error: bad ") and len(done.stderr) <= 160
    assert reason in done.stderr


LONG_LABEL = "x" * 100_000


@pytest.mark.parametrize(
    "doc, argv",
    [
        (
            {"classes": [[LONG_LABEL], [LONG_LABEL]], "lower": ["0", "1"], "upper": ["1", "1"]},
            ["validate"],
        ),
        (P1_DOC, ["upper", "--event", LONG_LABEL]),
        ({"pi": {LONG_LABEL: "2", "b": "1"}}, ["validate"]),
        ({"marginals": [{"|" + LONG_LABEL[1:]: "1"}]}, ["joint", "--rule", "frechet"]),
    ],
    ids=["duplicate-label", "unknown-label", "value-outside", "separator-label"],
)
def test_error_lines_cut_long_labels(write_doc, capsys, doc, argv):
    code, out, err = run(capsys, *argv, "--input", write_doc(doc))
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert len(err.encode()) < 200 and "(100002 characters)" in err
