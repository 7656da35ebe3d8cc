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
    try:
        return build(data)
    except (PoissetError, ValueError, TypeError, KeyError) as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _raw_bracket(args) -> Bracket:
    """The --bracket table over --poset and --ring, loaded raw so that the
    checks can report violations."""
    poset = _load(args.poset, Poset.from_json)
    ring = _parse_ring(args.ring)
    return _load(
        args.bracket, lambda data: Bracket.from_json(poset, ring, data, antisymmetric=False)
    )


def _write(args, payload: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _emit(args, data, text: str) -> None:
    if args.format == "json":
        text = json.dumps(data, indent=2)
    _write(args, text if text.endswith("\n") else text + "\n")


def _refuse(args, exc: PoissetError, what: str) -> int:
    """Emit the error of an input the command refused; exit code 1."""
    _emit(args, {"error": type(exc).__name__, "detail": str(exc)}, f"{what}: {exc}")
    return CHECK_FAILED


def _report_text(records: list[dict]) -> str:
    lines = []
    for record in records:
        if record["status"] == "pass":
            count = (record.get("instance") or {}).get("instances")
            suffix = f" ({count} instances)" if count is not None else ""
            lines.append(f"{record['check']}: pass{suffix}")
        else:
            lines.append(f"{record['check']}: FAIL at {record['instance']}")
    return "\n".join(lines)


def _sigma_text(sigma: SigmaMap) -> str:
    entries = sigma.to_json()["entries"]
    if not entries:
        return "(no strict pairs)"
    return "\n".join(
        f"sigma({e['lo']}, {e['hi']}) = {e['value']}" for e in entries
    )


# -- command handlers --------------------------------------------------------


def _cmd_poset_info(args) -> int:
    poset = _load(args.poset, Poset.from_json)
    data = {
        "elements": list(poset.elements),
        "covers": [list(c) for c in poset.covers],
        "intervals": len(poset.intervals()),
        "strict_pairs": len(poset.strict_pairs()),
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
    _emit(args, data, text)
    return 0


def _cmd_components(args) -> int:
    poset = _load(args.poset, Poset.from_json)
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
    _emit(args, data, "\n".join(lines))
    return 0


def _cmd_classify(args) -> int:
    poset = _load(args.poset, Poset.from_json)
    ring = _parse_ring(args.ring)
    try:
        report = classify(poset, ring)
    except BijectionViolation as exc:
        return _refuse(args, exc, "bijection violated")
    data = report.to_json()
    lines = [
        f"dimension: {data['dimension']}",
        f"chain components: {data['chain_components']}",
        f"match: {str(data['match']).lower()}",
    ]
    for pos, sigma in enumerate(report.sigmas):
        lines.append(f"basis vector {pos}:")
        lines.extend("  " + line for line in _sigma_text(sigma).split("\n"))
    _emit(args, data, "\n".join(lines))
    return 0


def _cmd_verify(args) -> int:
    bracket = _raw_bracket(args)
    reports = [
        check_antisymmetric(bracket),
        check_biderivation(bracket),
        check_jacobi(bracket),
    ]
    records = [record for report in reports for record in report.to_json()]
    ok = all(report.ok for report in reports)
    verdict = "all checks pass" if ok else "violations found"
    _emit(args, records, _report_text(records) + f"\n{verdict}")
    return 0 if ok else CHECK_FAILED


def _cmd_from_sigma(args) -> int:
    poset = _load(args.poset, Poset.from_json)
    ring = _parse_ring(args.ring)
    sigma = _load(args.sigma, lambda data: SigmaMap.from_json(poset, ring, data))
    try:
        bracket = from_sigma(sigma)
    except NotChainConstant as exc:
        return _refuse(args, exc, "not chain-constant")
    data = bracket.to_json()
    lines = [
        f"B(e[{p['left']['lo']},{p['left']['hi']}], e[{p['right']['lo']},{p['right']['hi']}]) = "
        + " + ".join(f"{e['coeff']}*e[{e['lo']},{e['hi']}]" for e in p["value"])
        for p in data["pairs"]
    ]
    _emit(args, data, "\n".join(lines) if lines else "zero bracket")
    return 0


def _cmd_extract_sigma(args) -> int:
    bracket = _raw_bracket(args)
    try:
        sigma = extract_sigma(bracket)
    except NotABiderivation as exc:
        return _refuse(args, exc, "not an antisymmetric biderivation")
    _emit(args, sigma.to_json(), _sigma_text(sigma))
    return 0


def _cmd_is_standard(args) -> int:
    bracket = _raw_bracket(args)
    try:
        witness = is_standard(bracket)
    except NotABiderivation as exc:
        return _refuse(args, exc, "not an antisymmetric biderivation")
    if witness is None:
        _emit(args, {"standard": False, "lambda": None}, "not standard")
    else:
        _emit(
            args,
            {"standard": True, "lambda": witness.to_json()},
            f"standard with lambda = {witness!r}",
        )
    return 0


def _cmd_lemma_suite(args) -> int:
    bracket = _raw_bracket(args)
    report = lemma_suite(bracket, samples=args.samples, seed=args.seed)
    records = report.to_json()
    verdict = "all lemmas pass" if report.ok else "violations found"
    _emit(args, records, _report_text(records) + f"\n{verdict}")
    return 0 if report.ok else CHECK_FAILED


def _cmd_export_dot(args) -> int:
    poset = _load(args.poset, Poset.from_json)
    _write(args, poset.to_dot())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisset",
        description="Classify Poisson structures on incidence algebras of finite posets.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--poset", required=True, help="poset JSON file")
    common.add_argument(
        "--ring", default="Q", help="coefficient ring: Q, Z, or Z/m (default Q)"
    )
    common.add_argument(
        "--format", choices=("json", "text"), default="text", help="output format"
    )
    common.add_argument("--output", help="write output to this file")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("poset-info", parents=[common], help="order-theoretic summary")
    sub.add_parser("components", parents=[common], help="connected and chain components")
    sub.add_parser(
        "classify", parents=[common], help="solve for all Poisson structures"
    )

    p = sub.add_parser("verify", parents=[common], help="check a bracket table")
    p.add_argument("--bracket", required=True, help="bracket JSON file")

    p = sub.add_parser("from-sigma", parents=[common], help="bracket from a sigma map")
    p.add_argument("--sigma", required=True, help="sigma JSON file")

    p = sub.add_parser(
        "extract-sigma", parents=[common], help="sigma map of a verified bracket"
    )
    p.add_argument("--bracket", required=True, help="bracket JSON file")

    p = sub.add_parser(
        "is-standard", parents=[common], help="test whether B = lambda [.,.]"
    )
    p.add_argument("--bracket", required=True, help="bracket JSON file")

    p = sub.add_parser(
        "lemma-suite", parents=[common], help="idempotent identity suite"
    )
    p.add_argument("--bracket", required=True, help="bracket JSON file")
    p.add_argument(
        "--samples", type=_count, default=20, help="random elements per lemma"
    )
    p.add_argument("--seed", type=int, default=0, help="random seed")

    sub.add_parser("export-dot", parents=[common], help="Hasse diagram as DOT")
    return parser


_HANDLERS = {
    "poset-info": _cmd_poset_info,
    "components": _cmd_components,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "from-sigma": _cmd_from_sigma,
    "extract-sigma": _cmd_extract_sigma,
    "is-standard": _cmd_is_standard,
    "lemma-suite": _cmd_lemma_suite,
    "export-dot": _cmd_export_dot,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (_InputError, NotAField) as exc:
        print(f"poisset: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except PoissetError as exc:
        print(f"poisset: {type(exc).__name__}: {exc}", file=sys.stderr)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
