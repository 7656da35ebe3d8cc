"""Command-line front end.

Loads posets, brackets, and sigma maps from JSON files, runs the checks
and the classification, and emits reports as JSON or human-readable text.
Exit codes: 0 all good, 1 checks ran and found violations, 2 usage or
input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bracket import (
    Bracket,
    SigmaMap,
    check_antisymmetric,
    check_biderivation,
    check_jacobi,
    extract_sigma,
    from_sigma,
    is_standard,
    lemma_suite,
)
from .coeff import RATIONALS, INTEGERS, RingSpec, integers_mod
from .errors import (
    BijectionViolation,
    NotABiderivation,
    NotAField,
    NotChainConstant,
    PoissetError,
)
from .poset import Poset
from .solver import classify

USAGE_ERROR = 2
CHECK_FAILED = 1


class _InputError(Exception):
    """Bad file, JSON, or flag value; maps to exit code 2."""


def _parse_ring(text: str) -> RingSpec:
    if text == "Q":
        return RATIONALS
    if text == "Z":
        return INTEGERS
    if text.startswith("Z/"):
        try:
            return integers_mod(int(text[2:]))
        except ValueError as exc:
            raise _InputError(f"bad ring {text!r}: {exc}") from exc
    raise _InputError(f"bad ring {text!r}: expected Q, Z, or Z/m")


def _count(text: str) -> int:
    """argparse type for a non-negative integer flag."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _load(path: str, build):
    """build(data) on the JSON in path; a bad file or content is an input
    error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # nested too deeply, a number past the int-digit limit, or not UTF-8
        raise _InputError(f"{path}: {exc}") from exc
    try:
        return build(data)
    except (PoissetError, ValueError, TypeError, KeyError) as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _raw_bracket(args, poset: Poset) -> Bracket:
    """The --bracket table over the poset and --ring, loaded raw so that the
    checks can report violations."""
    ring = _parse_ring(args.ring)
    return _load(
        args.bracket, lambda data: Bracket.from_json(poset, ring, data, antisymmetric=False)
    )


def _refusal(exc: PoissetError, what: str):
    """The outcome of an input the command refused: exit code 1."""
    return CHECK_FAILED, {"error": type(exc).__name__, "detail": str(exc)}, f"{what}: {exc}"


def _checks_outcome(reports, verdict: str):
    """The records of the check reports, their text with the verdict line,
    and exit code 1 if any check failed."""
    records = [record for report in reports for record in report.to_json()]
    lines = []
    for record in records:
        if record["status"] == "pass":
            count = (record.get("instance") or {}).get("instances")
            suffix = f" ({count} instances)" if count is not None else ""
            lines.append(f"{record['check']}: pass{suffix}")
        else:
            lines.append(f"{record['check']}: FAIL at {record['instance']}")
    ok = all(report.ok for report in reports)
    text = "\n".join(lines) + "\n" + (verdict if ok else "violations found")
    return (0 if ok else CHECK_FAILED), records, text


def _sigma_text(sigma: SigmaMap) -> str:
    entries = sigma.to_json()["entries"]
    if not entries:
        return "(no strict pairs)"
    return "\n".join(
        f"sigma({e['lo']}, {e['hi']}) = {e['value']}" for e in entries
    )


# -- command handlers: (args, poset) -> (exit code, JSON data, text) ----------


def _cmd_poset_info(args, poset: Poset):
    data = {
        "elements": list(poset.elements),
        "covers": [list(c) for c in poset.covers],
        "intervals": len(poset.intervals()),
        # every element x gives the one non-strict interval (x, x)
        "strict_pairs": len(poset.intervals()) - len(poset),
        "connected_components": len(poset.connected_components()),
        "chain_components": len(poset.chain_components()),
        "maximal_chains": [list(c) for c in poset.maximal_chains()],
        "maximal_chain_overlap": poset.maximal_chain_overlap(),
    }
    text = "\n".join(
        [
            f"elements: {' '.join(data['elements'])}",
            f"covers: {' '.join(f'{a}<{b}' for a, b in data['covers'])}",
            f"intervals: {data['intervals']}",
            f"strict pairs: {data['strict_pairs']}",
            f"connected components: {data['connected_components']}",
            f"chain components: {data['chain_components']}",
            f"maximal chains: {'; '.join(' '.join(c) for c in data['maximal_chains'])}",
            f"maximal chain overlap: {data['maximal_chain_overlap']}",
        ]
    )
    return 0, data, text


def _cmd_components(args, poset: Poset):
    data = {
        "connected": [list(c) for c in poset.connected_components()],
        "chain_components": [
            [[lo, hi] for lo, hi in cls] for cls in poset.chain_components()
        ],
    }
    lines = ["connected components:"]
    for members in data["connected"]:
        lines.append("  " + " ".join(members))
    lines.append("chain components of strict pairs:")
    for cls in data["chain_components"]:
        lines.append("  " + " ".join(f"({lo},{hi})" for lo, hi in cls))
    return 0, data, "\n".join(lines)


def _cmd_classify(args, poset: Poset):
    ring = _parse_ring(args.ring)
    try:
        report = classify(poset, ring)
    except BijectionViolation as exc:
        return _refusal(exc, "bijection violated")
    data = report.to_json()
    lines = [
        f"dimension: {data['dimension']}",
        f"chain components: {data['chain_components']}",
        f"match: {str(data['match']).lower()}",
    ]
    for pos, sigma in enumerate(report.sigmas):
        lines.append(f"basis vector {pos}:")
        lines.extend("  " + line for line in _sigma_text(sigma).split("\n"))
    return 0, data, "\n".join(lines)


def _cmd_verify(args, poset: Poset):
    bracket = _raw_bracket(args, poset)
    checks = (check_antisymmetric, check_biderivation, check_jacobi)
    return _checks_outcome([check(bracket) for check in checks], "all checks pass")


def _cmd_from_sigma(args, poset: Poset):
    ring = _parse_ring(args.ring)
    sigma = _load(args.sigma, lambda data: SigmaMap.from_json(poset, ring, data))
    try:
        bracket = from_sigma(sigma)
    except NotChainConstant as exc:
        return _refusal(exc, "not chain-constant")
    data = bracket.to_json()
    lines = [
        f"B(e[{p['left']['lo']},{p['left']['hi']}], e[{p['right']['lo']},{p['right']['hi']}]) = "
        + " + ".join(f"{e['coeff']}*e[{e['lo']},{e['hi']}]" for e in p["value"])
        for p in data["pairs"]
    ]
    return 0, data, "\n".join(lines) if lines else "zero bracket"


def _cmd_extract_sigma(args, poset: Poset):
    bracket = _raw_bracket(args, poset)
    try:
        sigma = extract_sigma(bracket)
    except NotABiderivation as exc:
        return _refusal(exc, "not an antisymmetric biderivation")
    return 0, sigma.to_json(), _sigma_text(sigma)


def _cmd_is_standard(args, poset: Poset):
    bracket = _raw_bracket(args, poset)
    try:
        witness = is_standard(bracket)
    except NotABiderivation as exc:
        return _refusal(exc, "not an antisymmetric biderivation")
    if witness is None:
        return 0, {"standard": False, "lambda": None}, "not standard"
    data = {"standard": True, "lambda": witness.to_json()}
    return 0, data, f"standard with lambda = {witness!r}"


def _cmd_lemma_suite(args, poset: Poset):
    bracket = _raw_bracket(args, poset)
    report = lemma_suite(bracket, samples=args.samples, seed=args.seed)
    return _checks_outcome([report], "all lemmas pass")


def _cmd_export_dot(args, poset: Poset):
    return 0, None, poset.to_dot()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisset",
        description="Classify Poisson structures on incidence algebras of finite posets.",
    )
    # parents in the order the usage line lists their flags
    groups = [argparse.ArgumentParser(add_help=False) for _ in range(7)]
    poset, ring, fmt, output, sigma, bracket, samples = groups
    poset.add_argument("--poset", required=True, help="poset JSON file")
    ring.add_argument("--ring", default="Q", help="coefficient ring: Q, Z, or Z/m (default Q)")
    fmt.add_argument("--format", choices=("json", "text"), default="text", help="output format")
    output.add_argument("--output", help="write output to this file")
    sigma.add_argument("--sigma", required=True, help="sigma JSON file")
    bracket.add_argument("--bracket", required=True, help="bracket JSON file")
    samples.add_argument("--samples", type=_count, default=20, help="random elements per lemma")
    samples.add_argument("--seed", type=int, default=0, help="random seed")
    summary, computed = [poset, fmt, output], [poset, ring, fmt, output]
    checked = [*computed, bracket]
    commands = [
        ("poset-info", _cmd_poset_info, summary, "order-theoretic summary"),
        ("components", _cmd_components, summary, "connected and chain components"),
        ("classify", _cmd_classify, computed, "solve for all Poisson structures"),
        ("verify", _cmd_verify, checked, "check a bracket table"),
        ("from-sigma", _cmd_from_sigma, [*computed, sigma], "bracket from a sigma map"),
        ("extract-sigma", _cmd_extract_sigma, checked, "sigma map of a verified bracket"),
        ("is-standard", _cmd_is_standard, checked, "test whether B = lambda [.,.]"),
        ("lemma-suite", _cmd_lemma_suite, [*checked, samples], "idempotent identity suite"),
        ("export-dot", _cmd_export_dot, [poset, output], "Hasse diagram as DOT"),
    ]
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, parents, help_text in commands:
        sub.add_parser(name, parents=parents, help=help_text).set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    """Parse argv, load --poset, run the command and write its outcome:
    the JSON data under --format json, else the text, to stdout or --output."""
    args = build_parser().parse_args(argv)
    try:
        code, data, text = args.handler(args, _load(args.poset, Poset.from_json))
    except (_InputError, NotAField) as exc:
        print(f"poisset: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except PoissetError as exc:
        print(f"poisset: {type(exc).__name__}: {exc}", file=sys.stderr)
        return CHECK_FAILED
    if getattr(args, "format", "text") == "json":
        text = json.dumps(data, indent=2)
    if not text.endswith("\n"):
        text += "\n"
    if not args.output:
        sys.stdout.write(text)
        return code
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"poisset: {args.output}: {exc.strerror or exc}", file=sys.stderr)
        return USAGE_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
