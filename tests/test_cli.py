"""Command-line behaviour that a replay of ``tests/golden/`` cannot check.

The golden transcript is the one record of what ``possbox`` prints for an
argv and a document on stdin.  The tests here read documents from
``--input`` paths, run fresh processes (under several hash seeds, or a
strict stdout encoding), bound times and byte lengths, lower a ceiling, or
check that the command line shares its writers with the library.
"""

import io
import json
import sys
import time

import pytest
from conftest import run_process
from golden_corpus import BOXES, MARGINALS, load

from possbox import Chain, PBox, cli, joint_frechet, oracle, pbox_to_possibility, possibility_to_pbox, verify
from possbox.cli import main
from possbox.multivariate import JOINTS, MAX_POINTS, MarginalFamily
from possbox.possibility import PossibilityDistribution


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def loaded_by(statement):
    """The possbox modules, and which of ``dataclasses`` and ``argparse``, a fresh ``-S`` process loads."""
    script = (
        f"import sys; {statement}; "
        "print(*sorted(k for k in sys.modules if k.split('.')[0] in ('possbox', 'dataclasses', 'argparse')))"
    )
    done = run_process([], python=("-S", "-c", script))
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout.split()


def test_the_command_line_imports_no_dataclasses():
    # dataclasses took 11-13 ms of a 54-68 ms import of possbox.cli (Python 3.11.7);
    # the oracle, the joints and the suites load only for the commands that run them.
    models = ["possbox.chain", "possbox.maxitive", "possbox.pbox", "possbox.possibility", "possbox.rationals"]
    assert loaded_by("import possbox") == ["possbox", *models]
    assert loaded_by("import possbox.cli") == sorted(["argparse", "possbox", "possbox.cli", *models])
    # The sweeps' set-up imports verify, which needs no parser.
    assert not {"possbox.cli", "argparse"} & set(loaded_by("import possbox.verify"))


def test_distributions_have_one_writer(write_doc, capsys):
    assert cli.pi_document is verify.pi_document
    # Tied classes listed out of label order: the document follows the chain.
    doc = dict(BOXES["tied"], lower=["0", "0", "1"])
    box = PBox(Chain(doc["classes"]), doc["lower"], doc["upper"])
    code, out, _ = run(capsys, "to-possibility", "--input", write_doc(doc), "--json")
    expected = {"pi": verify.pi_document(pbox_to_possibility(box))}
    assert (code, out) == (0, json.dumps(expected, separators=(",", ":")) + "\n")
    assert list(expected["pi"]) == ["a", "b", "c", "d", "e"]
    # A joint's product point is written as its coordinates joined by |, and replays.
    pi = {"a": "1/2", "b": "1"}
    joint = joint_frechet(MarginalFamily([PossibilityDistribution(pi)] * 2))
    written = json.loads(json.dumps(verify.pi_document(joint)))
    assert written == {"a|a": "1/2", "a|b": "1", "b|a": "1", "b|b": "1"}
    code, out, _ = run(capsys, "joint", "--input", write_doc({"marginals": [pi] * 2}), "--rule", "frechet", "--json")
    assert (code, json.loads(out)["pi"]) == (0, written)
    box = write_doc(verify.pbox_document(possibility_to_pbox(joint)), "box.json")
    code, out, _ = run(capsys, "to-possibility", "--input", box, "--json")
    assert (code, json.loads(out)) == (0, {"pi": written})


def test_a_value_error_from_any_command_is_one_error_line_and_exit_2(write_doc, capsys, monkeypatch):
    def boom(box):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "pbox_to_possibility", boom)
    assert run(capsys, "to-possibility", "--input", write_doc(BOXES["maxitive"])) == (2, "", "error: boom\n")


def test_joint_refuses_labels_holding_the_key_separator(write_doc, capsys):
    # The points (a, c), (a, b|c), (a|b, c), (a|b, b|c) would write three keys,
    # a|b|c standing for two; the refusal names the marginal.  The golden case
    # holds it in text; --json refuses alike, and validate accepts.
    case = next(case for case in load()["input-errors"] if case["name"] == "joint label with separator")
    path = write_doc(json.loads(case["stdin"]))
    code, out, err = run(capsys, *case["argv"], "--input", path, "--json")
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])
    code, out, _ = run(capsys, "validate", "--input", path)
    assert (code, out) == (0, "valid: marginals\n")


def test_joint_refuses_a_product_space_past_the_ceiling_before_building_it(write_doc, capsys):
    # The ceiling counts points, not vectors: one marginal of MAX_POINTS
    # labels builds its one vector, and one more label is refused.  (Checked
    # first, so a lost ceiling fails here instead of building 2**40 points.)
    flat = {f"x{j}": "1" for j in range(MAX_POINTS)}
    assert len(MarginalFamily([PossibilityDistribution(flat)]).vectors()[0][3]) == MAX_POINTS
    flat["over"] = "1"
    with pytest.raises(ValueError, match="more than MAX_POINTS"):
        MarginalFamily([PossibilityDistribution(flat)]).vectors()
    # 40 two-label marginals ask for 2**40 points; the refusal is one line, at once.
    path = write_doc({"marginals": MARGINALS["two"]["marginals"][:1] * 40})
    for rule in JOINTS:
        for extra in ((), ("--json",)):
            start = time.perf_counter()
            code, out, err = run(capsys, "joint", "--input", path, "--rule", rule, *extra)
            assert time.perf_counter() - start < 0.5
            assert (code, out) == (2, "")
            assert err == f"error: the product space has more than MAX_POINTS = {MAX_POINTS} points\n"
    with pytest.raises(SystemExit):
        main(["joint", "--help"])
    assert f"more than {MAX_POINTS} product points" in " ".join(capsys.readouterr().out.split())


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


def test_an_unreadable_input_path_is_named_once_and_cut(capsys):
    code, out, err = run(capsys, "validate", "--input", LONG_RUN)
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith("error: cannot read " + "x" * 40 + "... (5000 characters): ")
    assert err.count("x" * 40) == 1 and len(err.encode()) <= 200


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


NOT_UTF8 = (b"\xff\xfe", "error: unreadable document: 'utf-8' codec can't decode byte 0xff")
NESTED = (b"[" * 100_000 + b"]" * 100_000, "error: unreadable document: maximum recursion depth")
LONG_INTEGER = (b'{"pi": {"a": ' + b"1" * 5000 + b"}}", "error: unreadable document: Exceeds the limit")


# The golden input-errors cases replay the stdin variants of the other two.
@pytest.mark.parametrize(
    "raw, line, source",
    [
        pytest.param(*NOT_UTF8, "file", id="not-utf8-file"),
        pytest.param(*NESTED, "file", id="nested-file"),
        pytest.param(*NESTED, "stdin", id="nested-stdin"),
        pytest.param(*LONG_INTEGER, "file", id="long-integer-file"),
    ],
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
        (BOXES["maxitive"], ["upper", "--event", LONG_LABEL]),
        ({"pi": {LONG_LABEL: "2", "b": "1"}}, ["validate"]),
        ({"marginals": [{"|" + LONG_LABEL[1:]: "1"}]}, ["joint", "--rule", "frechet"]),
    ],
    ids=["duplicate-label", "unknown-label", "value-outside", "separator-label"],
)
def test_error_lines_cut_long_labels(write_doc, capsys, doc, argv):
    code, out, err = run(capsys, *argv, "--input", write_doc(doc))
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert len(err.encode()) < 200 and "(100002 characters)" in err
