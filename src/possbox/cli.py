"""Command-line interface.

Every command but ``verify`` reads a JSON model document (``--input`` or
stdin) holding any of:

* ``classes`` + ``lower`` + ``upper`` -- a probability box on a chain,
* ``pi`` -- a possibility distribution,
* ``marginals`` -- a list of possibility distributions.

All numbers are exact strings ("1/2", "0.8", "1").  Output is plain text, or
compact JSON with ``--json``; identical inputs produce byte-identical
output.  Exit codes: 0 success, 1 verification failure, 2 usage/input error.

Each command is a function of its model and the parsed arguments that
returns the JSON payload and the text of its answer; it is registered once,
with the reader that builds its model from the document (none for
``verify``).  :func:`main` is the one path from argv to answer: it loads the
document, calls the reader and the command, prints, and picks the exit code.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import NoReturn, Sequence

from possbox.chain import Chain
from possbox.maxitive import is_maxitive
from possbox.multivariate import JOINTS, MAX_POINTS, MarginalFamily
from possbox.oracle import MAX_CLASSES, MAX_ELEMENTS
from possbox.pbox import PBox
from possbox.possibility import (
    PossibilityDistribution,
    conjunction_bounds,
    conjunction_decompose,
    pbox_to_possibility,
    possibility_to_pbox,
)
from possbox.rationals import shown
from possbox.verify import SUITES, pbox_document, pi_document, run_suite


class CliError(Exception):
    """Input or usage problem; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are one ``error:`` line and exit 2.

    Like values in input errors, each whitespace-free run of more than 40
    characters in the line is cut by :func:`~possbox.rationals.shown`.

    ``add_subparsers`` builds the command parsers with this class too.
    """

    def error(self, message: str) -> NoReturn:
        line = re.sub(r"\S{41,}", lambda run: shown(run.group()), " ".join(message.splitlines()))
        self.exit(2, f"error: {line}\n")


def _load_document(args: argparse.Namespace) -> dict:
    try:
        if args.input and args.input != "-":
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
        else:
            text = sys.stdin.read()
        doc = json.loads(text)
    except OSError as exc:
        raise CliError(f"cannot read {shown(args.input)}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, nested too deep, a huge integer
        raise CliError(f"unreadable document: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError("model document must be a JSON object")
    if not any(key in doc for key in ("classes", "pi", "marginals")):
        raise CliError("model document holds none of: classes/lower/upper, pi, marginals")
    return doc


def _document_chain(doc: dict) -> Chain:
    classes = doc.get("classes")
    if classes is None:
        raise CliError('document field "classes" is required for this command')
    if not isinstance(classes, list) or not all(isinstance(c, list) for c in classes):
        raise CliError('"classes" must be a list of lists of labels')
    if not all(isinstance(label, str) for cls in classes for label in cls):
        raise CliError('every label in "classes" must be a string')
    try:
        return Chain(classes)
    except ValueError as exc:
        raise CliError(f'bad "classes": {exc}') from exc


def _document_pbox(doc: dict) -> PBox:
    chain = _document_chain(doc)
    for key in ("lower", "upper"):
        if not isinstance(doc.get(key), list):
            raise CliError(f'document field "{key}" must be a list of exact values')
    try:
        return PBox(chain, doc["lower"], doc["upper"])
    except ValueError as exc:
        raise CliError(f"bad probability box: {exc}") from exc


def _document_pi(doc: dict) -> PossibilityDistribution:
    pi = doc.get("pi")
    if not isinstance(pi, dict):
        raise CliError('document field "pi" must be an object of label -> exact value')
    try:
        return PossibilityDistribution(pi)
    except ValueError as exc:
        raise CliError(f'bad "pi": {exc}') from exc


def _document_marginals(doc: dict) -> MarginalFamily:
    marginals = doc.get("marginals")
    if not isinstance(marginals, list) or not marginals:
        raise CliError('document field "marginals" must be a non-empty list of objects')
    dists = []
    for k, entry in enumerate(marginals):
        if not isinstance(entry, dict):
            raise CliError(f"marginal {k} must be an object of label -> exact value")
        try:
            dists.append(PossibilityDistribution(entry))
        except ValueError as exc:
            raise CliError(f"bad marginal {k}: {exc}") from exc
    return MarginalFamily(dists)


def _event_from_args(args: argparse.Namespace, chain: Chain) -> frozenset[str]:
    raw = args.event
    if raw is None:
        raise CliError("--event is required for this command")
    labels = [part for part in (piece.strip() for piece in raw.split(",")) if part]
    try:
        event = chain.event(labels)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.complement:
        event = chain.complement(event)
    return event


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, separators=(",", ":")))
        return
    try:
        print(text)
    except UnicodeEncodeError as exc:  # raised before anything is written
        bad = exc.object[exc.start : exc.end]
        raise CliError(
            f"stdout ({exc.encoding}) cannot encode {shown(ascii(bad))}; use --json"
        ) from exc


# ----------------------------------------------------------------- commands


def _validate(doc: dict, args: argparse.Namespace) -> tuple[dict, str]:
    present = []
    if "classes" in doc:
        if "lower" in doc or "upper" in doc:
            _document_pbox(doc)
            present.append("pbox")
        else:
            _document_chain(doc)
            present.append("chain")
    if "pi" in doc:
        _document_pi(doc)
        present.append("pi")
    if "marginals" in doc:
        _document_marginals(doc)
        present.append("marginals")
    return {"valid": True, "models": present}, "valid: " + ", ".join(present)


def _bound(box: PBox, args: argparse.Namespace) -> tuple[dict, str]:
    """``upper`` or ``lower``, by the command's name."""
    value = getattr(box, args.command)(_event_from_args(args, box.chain))
    return {args.command: str(value)}, f"{args.command} = {value}"


def _is_maxitive(box: PBox, args: argparse.Namespace) -> tuple[dict, str]:
    answer = is_maxitive(box)
    return {"maxitive": answer}, f"maxitive: {'yes' if answer else 'no'}"


def _pairs(values: dict[str, str]) -> str:
    return ", ".join(f"{label}={value}" for label, value in values.items())


def _to_possibility(box: PBox, args: argparse.Namespace) -> tuple[dict, str]:
    pi = pbox_to_possibility(box)
    if pi is None:
        return {"pi": None}, "not a possibility measure"
    values = pi_document(pi)
    return {"pi": values}, "pi: " + _pairs(values)


def _from_possibility(pi: PossibilityDistribution, args: argparse.Namespace) -> tuple[dict, str]:
    box = possibility_to_pbox(pi)
    payload = pbox_document(box)
    lines = [
        "classes: " + " < ".join("{" + ", ".join(cls) + "}" for cls in payload["classes"]),
        "lower:   " + " ".join(payload["lower"]),
        "upper:   " + " ".join(payload["upper"]),
    ]
    return payload, "\n".join(lines)


def _decompose(box: PBox, args: argparse.Namespace) -> tuple[dict, str]:
    pi1, pi2 = conjunction_decompose(box)
    payload = {"pi1": pi_document(pi1), "pi2": pi_document(pi2)}
    return payload, "\n".join(f"{name}: {_pairs(values)}" for name, values in payload.items())


def _bounds(box: PBox, args: argparse.Namespace) -> tuple[dict, str]:
    event = _event_from_args(args, box.chain)
    approx_lo, approx_up = conjunction_bounds(box, event)
    payload = {
        "approx_lower": str(approx_lo),
        "lower": str(box.lower(event)),
        "upper": str(box.upper(event)),
        "approx_upper": str(approx_up),
    }
    return payload, "; ".join(f"{name} = {value}" for name, value in payload.items())


def _joint(family: MarginalFamily, args: argparse.Namespace) -> tuple[dict, str]:
    for k, domain in enumerate(family.domains):
        for label in domain:
            if "|" in label:
                raise CliError(
                    f"marginal {k} label {shown(repr(label))} contains '|', the separator of point keys"
                )
    try:
        joint = JOINTS[args.rule](family)
    except ValueError as exc:  # past the ceiling on product points
        raise CliError(str(exc)) from exc
    values = {"|".join(point): str(joint[point]) for point in family.points()}
    return {"rule": args.rule, "pi": values}, "\n".join(f"{key} = {value}" for key, value in values.items())


def _verify(_: None, args: argparse.Namespace) -> tuple[dict, str]:
    try:
        report = run_suite(args.suite, args.max_classes, args.grid)
    except ValueError as exc:  # a size below 1, or past the ceiling of the suite's oracle
        raise CliError(str(exc)) from exc
    payload = {"suite": report.suite, "cases": report.cases, "checks": report.checks, "ok": report.ok}
    text = report.summary()
    if report.counterexample is not None:
        payload["counterexample"] = report.counterexample
        text += "\ncounterexample: " + json.dumps(report.counterexample, separators=(",", ":"))
    return payload, text


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="possbox",
        description="Exact event bounds from probability boxes and possibility measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, read, answer, help_text: str, *, event: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if read is not None:
            p.add_argument("--input", default=None, help="model document path (default: stdin)")
        p.add_argument("--json", action="store_true", help="emit compact JSON")
        if event:
            p.add_argument("--event", default=None, help="comma-separated labels")
            p.add_argument("--complement", action="store_true", help="use the event's complement")
        p.set_defaults(read=read, answer=answer)
        return p

    add("validate", lambda doc: doc, _validate, "check a model document")
    add("upper", _document_pbox, _bound, "natural-extension upper probability of an event", event=True)
    add("lower", _document_pbox, _bound, "natural-extension lower probability of an event", event=True)
    add("is-maxitive", _document_pbox, _is_maxitive, "is the box's upper probability maxitive?")
    add("to-possibility", _document_pbox, _to_possibility, "possibility distribution of a maxitive box")
    add("from-possibility", _document_pi, _from_possibility, "probability box encoding a distribution")
    add("decompose", _document_pbox, _decompose, "split a box into two possibility distributions")
    add("bounds", _document_pbox, _bounds, "exact and conjunction-approximate bounds", event=True)
    joint = add("joint", _document_marginals, _joint, "joint distribution from marginals")
    joint.add_argument(
        "--rule",
        required=True,
        choices=JOINTS,
        help=f"joint construction; a family of more than {MAX_POINTS} product points"
        " (the product of the domain sizes) is refused",
    )
    verify = add("verify", None, _verify, "run a verification suite")
    verify.add_argument("--suite", required=True, choices=sorted(SUITES))
    verify.add_argument(
        "--max-classes",
        type=int,
        default=None,
        dest="max_classes",
        help="largest chain, sample domain or marginal domain, by suite (default: the suite's own);"
        f" at most {MAX_CLASSES} for maxitive and {MAX_ELEMENTS} for conjunction, the ceilings"
        " of their exhaustive oracle checks, and none for the others; the work grows"
        " exponentially: each box has 2**max_classes events",
    )
    verify.add_argument(
        "--grid",
        type=int,
        default=None,
        help="denominator of the value grid (default: the suite's own); no ceiling,"
        " and the grid boxes of each chain size grow with the grid",
    )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        model = None if args.read is None else args.read(_load_document(args))
        payload, text = args.answer(model, args)
        _emit(args, payload, text)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # pragma: no cover - downstream closed the pipe
        return 0
    # Only a suite report carries "ok"; exit 1 is kept for a counterexample.
    return 1 if payload.get("ok") is False else 0


if __name__ == "__main__":
    sys.exit(main())
