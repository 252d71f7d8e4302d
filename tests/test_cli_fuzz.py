"""Fuzz ``possbox.cli.main`` in-process: every document and command ends in exit 0 or 2.

Documents are written to a file as bytes, so undecodable input reaches the
CLI the way it would from disk.  Most documents are valid models, some with
one field spoiled; the rest are bad bytes, deep nesting and stray JSON.
Some argvs are spoiled so that argument parsing rejects them; those must
exit 2.  Exit 2 must come with exactly one stderr line, exit 0 with none,
and nothing but argument parsing's ``SystemExit(2)`` may escape as an
exception.
"""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from possbox.cli import main
from possbox.multivariate import JOINTS
from possbox.verify import SUITES

#: Labels the models and the ``--event`` flag draw from, ``|`` and ``,`` included.
POOL = ("a", "b", "c", "d", "a|b", "x,y", " ", "")
labels = st.one_of(st.sampled_from(POOL), st.text(max_size=3))
odd_labels = st.one_of(st.integers(-2, 2), st.none(), st.booleans(), st.lists(st.just("a"), max_size=1))

GRID = ("0", "1/4", "1/2", "3/4", "1")
odd_numbers = st.one_of(
    st.sampled_from(("0.5", "1e-3", " 1/2 ", "1/0", "-1", "2", "1_0", "1 /2", "١", "1e-99999999")),
    st.integers(-(10**9), 10**9).map(lambda e: f"1e{e}"),
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
    st.text(max_size=5),
    st.lists(st.just("1"), max_size=1),
)


@st.composite
def boxes(draw):
    """A valid box document on 1..4 classes of one or two labels."""
    m = draw(st.integers(1, 4))
    flat = draw(st.lists(labels, min_size=m, max_size=2 * m, unique=True))
    classes = [flat[i::m] for i in range(m)]
    upper = sorted(draw(st.lists(st.sampled_from(GRID), min_size=m, max_size=m)), key=Fraction)
    lower, running = [], "0"
    for i in range(m):
        running = max(running, min(draw(st.sampled_from(GRID)), upper[i], key=Fraction), key=Fraction)
        lower.append(running)
    return {"classes": classes, "lower": lower[:-1] + ["1"], "upper": upper[:-1] + ["1"]}


distributions = st.dictionaries(labels, st.sampled_from(GRID), min_size=1, max_size=3).map(
    lambda pi: {**pi, next(iter(pi)): "1"}
)
pis = st.fixed_dictionaries({"pi": distributions})
marginals = st.fixed_dictionaries({"marginals": st.lists(distributions, min_size=1, max_size=3)})
models = st.one_of(boxes(), pis, marginals, st.tuples(boxes(), pis).map(lambda pair: {**pair[0], **pair[1]}))


def spoil(draw, doc):
    """Drop or replace one field, replace one value, or add one label to a class."""
    action = draw(st.sampled_from(("drop", "field", "entry", "label")))
    key = "classes" if action == "label" and "classes" in doc else draw(st.sampled_from(sorted(doc)))
    value = doc[key]
    if action == "drop":
        del doc[key]
    elif action == "field":
        doc[key] = draw(st.one_of(odd_numbers, st.dictionaries(labels, odd_numbers, max_size=2)))
    elif isinstance(value, dict):
        value[draw(st.sampled_from(sorted(value)))] = draw(odd_numbers)
    elif key == "classes" and action == "label":
        duplicate = st.sampled_from([label for cls in value for label in cls])
        value[draw(st.integers(0, len(value) - 1))].append(draw(st.one_of(odd_labels, duplicate)))
    else:
        value[draw(st.integers(0, len(value) - 1))] = draw(odd_numbers)


def nested(field):
    """A document, or one field of it, nested far past the parser's recursion limit."""
    inner = "[" * 100_000 + "1" + "]" * 100_000
    return (inner if field is None else json.dumps({field: "@"}).replace('"@"', inner)).encode()


#: Documents that hold no model: not UTF-8, nested too deeply, or not a JSON object.
non_models = {
    "not an object": st.one_of(odd_numbers, st.lists(labels, max_size=2)).map(
        lambda value: json.dumps(value).encode()
    ),
    "utf-16": models.map(lambda doc: json.dumps(doc).encode("utf-16")),
    "bad byte": models.map(lambda doc: b"\xff" + json.dumps(doc).encode("utf-8")),
    "nested": st.sampled_from((None, "classes", "pi", "marginals")).map(nested),
    "bytes": st.binary(max_size=12),
}

EVENT_COMMANDS = ("upper", "lower", "bounds")
#: The model each command reads; ``validate`` takes any document, ``verify`` reads none.
MODEL_OF = {
    **dict.fromkeys(EVENT_COMMANDS + ("is-maxitive", "to-possibility", "decompose"), boxes()),
    "from-possibility": pis,
    "joint": marginals,
    "validate": models,
    "verify": models,
}
SIZES = st.integers(-2, 2).map(str)
#: Arguments no command accepts: unknown flags, a value for ``--json``, a stray word.
#: None abbreviates a real flag.
UNKNOWN_FLAGS = ("--bogus", "--events", "-x", "--json=1", "stray")
NOT_INTS = ("x", "", "1.5", "0x1", "1e3")


def spoil_argv(draw, argv):
    """Add an unknown flag, or give a size that is no int, a suite or rule that
    does not exist, or drop a required flag."""
    command = argv[0]
    actions = ("flag", "size", "choice", "drop") if command == "verify" else ("flag",)
    if command == "joint":
        actions += ("choice", "drop")
    action = draw(st.sampled_from(actions))
    if action == "flag":
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(UNKNOWN_FLAGS)))
    elif action == "size":
        argv[argv.index(draw(st.sampled_from(("--max-classes", "--grid")))) + 1] = draw(
            st.sampled_from(NOT_INTS)
        )
    else:
        at = argv.index("--suite" if command == "verify" else "--rule")
        if action == "choice":
            argv[at + 1] = draw(st.sampled_from(("bogus", "")))
        else:
            del argv[at : at + 2]


@st.composite
def cases(draw, path):
    """An argv for every command and flag, the bytes of the document it reads,
    and whether the argv is spoiled.

    Most documents are a model the command reads, whole or spoiled; an
    event names labels of the model, unknown labels and labels holding ``,``.
    One argv in eight is spoiled.
    """
    command = draw(st.sampled_from(sorted(MODEL_OF)))
    kind = draw(st.sampled_from(("whole", "spoiled", "spoiled", "other", *non_models)))
    if kind in non_models:
        document, known = draw(non_models[kind]), []
    else:
        doc = draw(models if kind == "other" else MODEL_OF[command])
        known = sorted({label for cls in doc.get("classes", []) for label in cls})
        if kind == "spoiled":
            spoil(draw, doc)
        document = json.dumps(doc).encode("utf-8")
    argv = [command]
    if command == "verify":
        argv += ["--suite", draw(st.sampled_from(sorted(SUITES)))]
        argv += ["--max-classes", draw(SIZES), "--grid", draw(SIZES)]
    else:
        argv += ["--input", draw(st.sampled_from((path,) * 9 + (path + ".missing",)))]
    if command == "joint":
        argv += ["--rule", draw(st.sampled_from(sorted(JOINTS)))]
    if command in EVENT_COMMANDS:
        if draw(st.sampled_from((True,) * 9 + (False,))):
            event = draw(st.lists(st.sampled_from(known + list(POOL)), max_size=3))
            argv.append("--event=" + ",".join(event))
        if draw(st.booleans()):
            argv.append("--complement")
    if draw(st.booleans()):
        argv.append("--json")
    spoiled = draw(st.integers(0, 7)) == 0
    if spoiled:
        spoil_argv(draw, argv)
    return argv, document, spoiled


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_document_and_command_ends_in_exit_0_or_one_error_line(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    argv, document, spoiled = data.draw(cases(str(path)))
    path.write_bytes(document)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argument parsing rejected the argv
            code = exc.code
    assert code == 2 if spoiled else code in (0, 2)
    if code == 0:
        assert err.getvalue() == "" and out.getvalue().endswith("\n")
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert err.getvalue().endswith("\n")
