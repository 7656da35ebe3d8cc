"""Workload corpora.  Each builder turns a seed into a list of jobs.

A job is one call into poisset's public API, or for ``cli`` one
``python -m poisset.cli`` process, together with a check of its outcome
against an answer the benchmark derives on its own (see reference.py).
Builders run during set-up; the program sees only the inputs they make.
Calls go through ``poisset.<name>`` attribute lookups at call time, so
the tracer's wrappers see them.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable

import poisset
import poisset.cli
from poisset.errors import NotABiderivation

import shapes as S
from reference import as_fractions, convolve, subtract

Q = poisset.RATIONALS
ZP = poisset.integers_mod(7)
CLI_TIMEOUT_S = 30


@dataclass
class Job:
    name: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    tags: dict = field(default_factory=dict)


def returns(verify):
    """The job must return; verify(value) gives an error text or None."""

    def check(outcome):
        if isinstance(outcome, BaseException):
            return f"raised {type(outcome).__name__}: {outcome}"
        return verify(outcome)

    return check


def raises(kind):
    def check(outcome):
        if isinstance(outcome, kind):
            return None
        return f"expected {kind.__name__}, got {outcome!r}"[:300]

    return check


# -- solve ----------------------------------------------------------------------

# bool3 (about 7 s over Q and 3.5 s over Z/7 per classify) is left out: a
# single job would take a fifth of a run.  The mix is chosen so that the
# median and the 90th percentile each fall inside a block of jobs of about
# equal cost (random shapes of 11 intervals, and 7-element ones of 14),
# not on a gap between two fixed shapes, which would make them jump.
def solve(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    fixed = [
        S.crown(),
        S.diamond(),
        S.fence(3),
        S.chain(4),
        S.chain(5),
        S.chain(6),
        S.boolean(2),
        S.union("crown+chain3", S.crown(), S.chain(3)),
    ]
    light = [S.random_shape(rng, f"rand{k}", (5, 7), (0.3, 0.6), (11, 11)) for k in range(10)]
    heavy = [S.random_shape(rng, f"heavy{k}", (7, 7), (0.3, 0.6), (14, 14)) for k in range(6)]
    jobs = []
    for shape in fixed + light + heavy:
        poset = poisset.Poset(shape.elements, shape.covers)
        jobs += [_classify_job(shape, poset, ring) for ring in (Q, ZP)]
    return jobs


def _classify_job(shape, poset, ring) -> Job:
    def verify(report):
        want = len(shape.chain_components)
        if report.dimension != want or not report.match:
            return f"dimension {report.dimension}, reference {want}"
        return None

    return Job(
        f"classify {shape.name} {ring}",
        lambda: poisset.classify(poset, ring),
        returns(verify),
        {"ring": "Q" if ring.kind == "Q" else "Zp"},
    )


# -- verify ---------------------------------------------------------------------


def _sigma_values(shape, rng, kind: str) -> dict:
    """Chain-constant values: every component nonzero ("dense") or one
    component nonzero and the rest zero ("sparse")."""
    classes = shape.chain_components
    live = range(len(classes)) if kind == "dense" else [rng.randrange(len(classes))]
    values = {pair: 0 for cls in classes for pair in cls}
    for k in live:
        c = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
        for pair in classes[k]:
            values[pair] = c
    return values


def _standard_lambda(shape, values) -> dict | None:
    """{x: lambda} when sigma is constant on each connected component."""
    lam = {}
    for component in shape.order.connected_components():
        seen = {v for (lo, _), v in values.items() if lo in component}
        if len(seen) > 1:
            return None
        constant = seen.pop() if seen else 0
        lam.update((x, constant) for x in component)
    return lam


def _table_jobs(shape, poset, rng, kind: str, raw: bool, lemma_seed: int) -> list[Job]:
    values = _sigma_values(shape, rng, kind)
    sigma = poisset.SigmaMap(poset, Q, values)
    bracket = poisset.from_sigma(sigma)
    if raw:
        bracket = poisset.Bracket.from_json(poset, Q, bracket.to_json(), antisymmetric=False)
    n = len(shape.intervals)
    tags = {"sigma": kind, "mode": "raw" if raw else "antisymmetric"}
    label = f"{shape.name} {kind} {tags['mode']}"

    def stored_pairs(b):
        want = sum(
            1
            for i in shape.intervals
            for j in shape.intervals
            if i != j and i[1] == j[0] and values[(i[0], j[1])]
        )
        if len(b.stored_pairs()) != want:
            return f"{len(b.stored_pairs())} stored pairs, reference {want}"
        return None

    def passes(expected: dict):
        def verify(report):
            if not report.ok or report.pass_counts != expected:
                return f"{report!r}: passes {report.pass_counts}, want {expected}"
            return None

        return verify

    def sigma_back(s):
        for (lo, hi), v in values.items():
            if s.value(lo, hi).value != v:
                return f"sigma({lo},{hi}) = {s.value(lo, hi)}, want {v}"
        return None

    def standard(witness):
        lam = _standard_lambda(shape, values)
        if (witness is None) != (lam is None):
            return f"is_standard gave {witness!r}, reference lambda {lam}"
        if lam is not None:
            got = {x: Fraction(witness.coeff(x, x).value) for x in shape.elements}
            if got != lam:
                return f"lambda {got}, reference {lam}"
        return None

    cubes = n**3
    return [
        Job(f"from_sigma {label}", lambda: poisset.from_sigma(sigma), returns(stored_pairs), tags),
        Job(
            f"check_antisymmetric {label}",
            lambda: poisset.check_antisymmetric(bracket),
            returns(passes({"antisymmetry": n + n * (n - 1) // 2})),
            tags,
        ),
        Job(
            f"check_biderivation {label}",
            lambda: poisset.check_biderivation(bracket),
            returns(
                passes({"leibniz_1": cubes, "leibniz_2": cubes, "leibniz_equivalence": 1})
            ),
            tags,
        ),
        Job(
            f"check_jacobi {label}",
            lambda: poisset.check_jacobi(bracket),
            returns(passes({"jacobi": cubes})),
            tags,
        ),
        Job(f"extract_sigma {label}", lambda: poisset.extract_sigma(bracket), returns(sigma_back), tags),
        Job(f"is_standard {label}", lambda: poisset.is_standard(bracket), returns(standard), tags),
        Job(
            f"lemma_suite {label}",
            lambda: poisset.lemma_suite(bracket, samples=1, seed=lemma_seed),
            returns(lambda r: None if r.ok else f"{r!r}"),
            tags,
        ),
    ]


def _corrupt(shape, poset, rng, kind: str):
    """A raw table with one coefficient added: B(e_i, e_j) gains e_xx for a
    stored pair whose left interval i = (x, y) is strict.  The clean table
    is a biderivation, so the first Leibniz identity must now fail at the
    triple (i, e_yy, j), and antisymmetry at the pair {i, j}."""
    values = _sigma_values(shape, rng, kind)
    data = poisset.from_sigma(poisset.SigmaMap(poset, Q, values)).to_json()
    strict = [p for p in data["pairs"] if p["left"]["lo"] != p["left"]["hi"]]
    entry = rng.choice(strict)
    x = entry["left"]["lo"]
    entry["value"].append({"lo": x, "hi": x, "coeff": "1"})
    bracket = poisset.Bracket.from_json(poset, Q, data, antisymmetric=False)
    i = (entry["left"]["lo"], entry["left"]["hi"])
    j = (entry["right"]["lo"], entry["right"]["hi"])
    return bracket, i, j, data


def _corrupt_jobs(shape, poset, rng, kind: str) -> list[Job]:
    bracket, i, j, _ = _corrupt(shape, poset, rng, kind)
    tags = {"sigma": kind, "mode": "corrupted"}
    label = f"{shape.name} {kind} corrupted"
    pair = {i, j}
    triple = {"a": list(i), "b": [i[1], i[1]], "c": list(j)}

    def antisym(report):
        if any({tuple(inst["left"]), tuple(inst["right"])} == pair for _, inst in report.failures):
            return None
        return f"no antisymmetry failure at {sorted(pair)}"

    def leibniz(report):
        if ("leibniz_1", triple) in report.failures:
            return None
        return f"no leibniz_1 failure at {triple}"

    return [
        Job(f"check_antisymmetric {label}", lambda: poisset.check_antisymmetric(bracket), returns(antisym), tags),
        Job(f"check_biderivation {label}", lambda: poisset.check_biderivation(bracket), returns(leibniz), tags),
        Job(f"extract_sigma {label}", lambda: poisset.extract_sigma(bracket), raises(NotABiderivation), tags),
    ]


def _element(poset, shape, rng):
    """A dense element: every coefficient nonzero, so all products on one
    poset cost the same and the median does not hop between them."""
    coeffs = {
        poisset.Interval(lo, hi): Q.scalar(rng.choice([-3, -2, -1, 1, 2, 3]))
        for lo, hi in shape.intervals
    }
    return poisset.IncidenceElement(poset, Q, coeffs)


def _product_jobs(shape, poset, rng, pairs: int) -> list[Job]:
    jobs = []
    for k in range(pairs):
        f, g = _element(poset, shape, rng), _element(poset, shape, rng)
        ff, gg = as_fractions(f.coeffs), as_fractions(g.coeffs)

        def same(want):
            return lambda el: None if as_fractions(el.coeffs) == want() else "wrong product"

        jobs.append(
            Job(f"mul {shape.name} #{k}", lambda f=f, g=g: f * g, returns(same(lambda ff=ff, gg=gg: convolve(ff, gg))))
        )
        jobs.append(
            Job(
                f"commutator {shape.name} #{k}",
                lambda f=f, g=g: f.commutator(g),
                returns(same(lambda ff=ff, gg=gg: subtract(convolve(ff, gg), convolve(gg, ff)))),
            )
        )
    return jobs


def verify(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    dense = S.random_shape(rng, "randA", (12, 16), (0.2, 0.3), (34, 40))
    sparse = S.random_shape(rng, "randB", (12, 16), (0.2, 0.3), (34, 40))
    tables = [
        (S.chain(10), "dense", False),
        (S.boolean(4), "dense", True),
        (S.fence(16), "sparse", True),
        (dense, "dense", False),
        (sparse, "sparse", True),
    ]
    jobs = []
    for k, (shape, kind, raw) in enumerate(tables):
        poset = poisset.Poset(shape.elements, shape.covers)
        jobs += _table_jobs(shape, poset, rng, kind, raw, lemma_seed=seed + k)
    for shape, kind in [(S.chain(10), "dense"), (sparse, "sparse")]:
        poset = poisset.Poset(shape.elements, shape.covers)
        jobs += _corrupt_jobs(shape, poset, rng, kind)
    # the median falls among the chain10 commutators, the 90th percentile
    # among the chain10 checks (dense and corrupted) and bool4's Jacobi check
    for shape, pairs in [(S.chain(10), 7), (S.fence(16), 5), (S.boolean(4), 5)]:
        poset = poisset.Poset(shape.elements, shape.covers)
        jobs += _product_jobs(shape, poset, rng, pairs)
    return jobs


# -- structure ------------------------------------------------------------------


def structure(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    # sparse shapes of 110-130 elements and 450-550 intervals take about
    # the same time to construct; twelve of them hold the median
    big = [
        S.random_shape(rng, f"sparse{k}", (110, 130), (0.012, 0.018), (450, 550), max_chains=400)
        for k in range(12)
    ]
    mid = [
        S.random_shape(rng, "mid0", (30, 45), (0.07, 0.1), (150, 250), max_chains=400),
        S.random_shape(rng, "mid1", (45, 60), (0.05, 0.07), (250, 350), max_chains=400),
    ]
    jobs = []
    # tall shapes (many strict pairs, one chain) next to wide ones (few
    # pairs, many chains), so a gain on one kind cannot hide a loss on the
    # other.  The median falls among the sparse constructions, the 90th
    # percentile among chain_components of chains 30-38 and bool6.
    for shape in [S.chain(200), S.chain(300), S.chain(400), S.boolean(5), S.boolean(6), S.fence(200), *big, *mid]:
        jobs.append(_construct_job(shape))
    for shape in [*(S.chain(n) for n in (30, 32, 34, 36, 38)), S.boolean(5), S.boolean(6), *mid]:
        poset = poisset.Poset(shape.elements, shape.covers)
        jobs.append(
            Job(
                f"chain_components {shape.name}",
                lambda p=poset: p.chain_components(),
                returns(_count(lambda s=shape: len(s.chain_components))),
            )
        )
    for shape in [S.chain(300), S.boolean(5), big[0], mid[0]]:
        poset = poisset.Poset(shape.elements, shape.covers)
        jobs += _walk_jobs(shape, poset)
    return jobs


def _count(want):
    return lambda got: None if len(got) == want() else f"{len(got)} items, reference {want()}"


def _construct_job(shape) -> Job:
    # references are computed on first use, after the job, and only once
    want = cache(lambda: (shape.order.intervals, shape.order.strict_pairs, shape.order.cover_set()))

    def verify(poset):
        got = (len(poset.intervals()), len(poset.strict_pairs()), set(poset.covers))
        return None if got == want() else f"sizes {got[:2]}, reference {want()[:2]}"

    return Job(
        f"Poset {shape.name}",
        lambda: poisset.Poset(shape.elements, shape.covers),
        returns(verify),
    )


def _walk_jobs(shape, poset) -> list[Job]:
    order = shape.order
    want_components = cache(lambda: set(order.connected_components()))
    want_heights = cache(order.heights)
    want_overlap = cache(order.maximal_chain_overlap)

    def components(got):
        return None if {frozenset(c) for c in got} == want_components() else "components differ"

    def heights(got):
        return None if got == want_heights() else "heights differ"

    def overlap(got):
        return None if got == want_overlap() else "overlap differs"

    return [
        Job(f"connected_components {shape.name}", lambda: poset.connected_components(), returns(components)),
        Job(f"heights {shape.name}", lambda: poset.heights(), returns(heights)),
        Job(
            f"maximal_chains {shape.name}",
            lambda: poset.maximal_chains(),
            returns(_count(cache(order.maximal_chain_count))),
        ),
        Job(f"maximal_chain_overlap {shape.name}", lambda: poset.maximal_chain_overlap(), returns(overlap)),
    ]


# -- cli ------------------------------------------------------------------------


def cli_env() -> dict:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=src)


def run_cli(argv: list[str], workdir: str):
    """One ``python -m poisset.cli`` process; returns (exit code, stdout)."""
    done = subprocess.run(
        [sys.executable, "-m", "poisset.cli", *argv],
        cwd=workdir,
        env=cli_env(),
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return done.returncode, done.stdout


def run_cli_in_process(argv: list[str], workdir: str):
    """cli.main in this process, with its file paths resolved in workdir."""
    here = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    try:
        os.chdir(workdir)
        with redirect_stdout(out), redirect_stderr(err):
            code = poisset.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(here)
    return code, out.getvalue()


def _write(workdir: str, name: str, data) -> str:
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
        handle.write(data if isinstance(data, str) else json.dumps(data))
    return name


def cli(seed: int, workdir: str) -> list[Job]:
    """Small and medium inputs for all nine subcommands in both formats,
    failing brackets (exit 1) and malformed inputs (exit 2)."""
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)
    medium = S.random_shape(rng, "rand", (10, 12), (0.25, 0.35), (26, 28), max_chains=50)
    shapes = {s.name: s for s in (S.crown(), S.diamond(), S.chain(8), medium)}
    posets = {name: poisset.Poset(s.elements, s.covers) for name, s in shapes.items()}
    files = {name: _write(workdir, f"{name}.json", s.to_json()) for name, s in shapes.items()}

    sigmas = {}
    for name in ("chain8", "rand"):
        values = _sigma_values(shapes[name], rng, "dense")
        sigmas[name] = poisset.SigmaMap(posets[name], Q, values)
        table = poisset.from_sigma(sigmas[name]).to_json()
        files[f"{name}.sigma"] = _write(workdir, f"{name}.sigma.json", sigmas[name].to_json())
        files[f"{name}.good"] = _write(workdir, f"{name}.good.json", table)
    # the corrupted table is the crown's: a failing report's size depends on
    # where the error is, and on the crown that stays small for every seed
    _, _, _, corrupt = _corrupt(shapes["crown"], posets["crown"], rng, "dense")
    files["crown.bad"] = _write(workdir, "crown.bad.json", corrupt)
    # chain8 has one chain component, so changing one value breaks constancy
    broken = sigmas["chain8"].to_json()
    broken["entries"][0]["value"] = str(int(broken["entries"][0]["value"]) + 1)
    files["chain8.nonconstant"] = _write(workdir, "chain8.nonconstant.json", broken)
    _write(workdir, "notjson.json", "{ not json")
    _write(workdir, "unknown.json", {"elements": ["a", "b"], "covers": [["a", "z"]]})
    _write(workdir, "cycle.json", {"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]})
    _write(workdir, "intlabels.json", {"elements": [1, 2], "covers": [[1, 2]]})

    def load(name, raw_key):
        with open(os.path.join(workdir, files[raw_key]), encoding="utf-8") as handle:
            return poisset.Bracket.from_json(posets[name], Q, json.load(handle), antisymmetric=False)

    def poset_info(name):
        p = posets[name]
        return {
            "elements": list(p.elements),
            "covers": [list(c) for c in p.covers],
            "intervals": len(p.intervals()),
            "strict_pairs": len(p.strict_pairs()),
            "connected_components": len(p.connected_components()),
            "chain_components": len(p.chain_components()),
            "maximal_chains": [list(c) for c in p.maximal_chains()],
            "maximal_chain_overlap": p.maximal_chain_overlap(),
        }

    def components(name):
        p = posets[name]
        return {
            "connected": [list(c) for c in p.connected_components()],
            "chain_components": [[[lo, hi] for lo, hi in cls] for cls in p.chain_components()],
        }

    def standard(name):
        witness = poisset.is_standard(load(name, f"{name}.good"))
        if witness is None:
            return {"standard": False, "lambda": None}
        return {"standard": True, "lambda": witness.to_json()}

    def checks(name, key):
        b = load(name, key)
        reports = [poisset.check_antisymmetric(b), poisset.check_biderivation(b), poisset.check_jacobi(b)]
        return [record for report in reports for record in report.to_json()]

    def P(name):
        return ["--poset", files[name]]

    def B(key):
        return ["--bracket", files[key]]

    J, T = ["--format", "json"], ["--format", "text"]
    plan = [
        (["poset-info", *P("crown"), *T], 0, None),
        (["poset-info", *P("rand"), *J], 0, lambda: poset_info("rand")),
        (["components", *P("chain8"), *T], 0, None),
        (["components", *P("rand"), *J], 0, lambda: components("rand")),
        (["classify", *P("crown"), *J], 0, lambda: poisset.classify(posets["crown"], Q).to_json()),
        (["classify", *P("diamond"), "--ring", "Z/7", *T], 0, None),
        (["verify", *P("chain8"), *B("chain8.good"), *J], 0, lambda: checks("chain8", "chain8.good")),
        (["verify", *P("crown"), *B("crown.bad"), *J], 1, lambda: checks("crown", "crown.bad")),
        (["verify", *P("rand"), *B("rand.good"), *T], 0, None),
        (
            ["from-sigma", *P("rand"), "--sigma", files["rand.sigma"], *J],
            0,
            lambda: poisset.from_sigma(sigmas["rand"]).to_json(),
        ),
        (["from-sigma", *P("chain8"), "--sigma", files["chain8.nonconstant"], *T], 1, None),
        (
            ["extract-sigma", *P("chain8"), *B("chain8.good"), *J],
            0,
            lambda: poisset.extract_sigma(load("chain8", "chain8.good")).to_json(),
        ),
        (["extract-sigma", *P("chain8"), *B("chain8.good"), *T], 0, None),
        (["extract-sigma", *P("crown"), *B("crown.bad"), *T], 1, None),
        (["is-standard", *P("rand"), *B("rand.good"), *J], 0, lambda: standard("rand")),
        (["is-standard", *P("chain8"), *B("chain8.good"), *J], 0, lambda: standard("chain8")),
        (["is-standard", *P("chain8"), *B("chain8.good"), *T], 0, None),
        (
            ["lemma-suite", *P("chain8"), *B("chain8.good"), "--samples", "2", *J],
            0,
            lambda: poisset.lemma_suite(load("chain8", "chain8.good"), samples=2, seed=0).to_json(),
        ),
        (["lemma-suite", *P("rand"), *B("rand.good"), "--samples", "2", "--seed", "5", *T], 0, None),
        (["export-dot", *P("crown")], 0, None),
        (["export-dot", *P("rand")], 0, None),
        # malformed input: exit 2
        (["poset-info", "--poset", "notjson.json"], 2, None),
        (["poset-info", "--poset", "missing.json"], 2, None),
        (["components", "--poset", "unknown.json"], 2, None),
        (["components", "--poset", "cycle.json"], 2, None),
        (["classify", *P("crown"), "--ring", "Z/x"], 2, None),
        (["classify", *P("crown"), "--ring", "Z/6"], 2, None),
        (["verify", *P("crown")], 2, None),
    ]
    # Known defects, run once after the timed window and reported apart
    # (ROADMAP 5(b), 5(d)).  5(a), a huge modulus, is left out: it runs for
    # minutes and would time the timeout rather than the program.
    probes = [
        (["poset-info", "--poset", "intlabels.json"], 2, "5(b) integer labels"),
        (["lemma-suite", *P("chain8"), *B("chain8.good"), "--samples", "-3"], 2, "5(d) --samples -3"),
    ]
    jobs = [_cli_job(argv, code, ref, workdir) for argv, code, ref in plan]
    jobs += [_cli_job(argv, code, None, workdir, probe=why) for argv, code, why in probes]
    return jobs


def _cli_job(argv, code, ref, workdir, probe=None) -> Job:
    def verify(outcome):
        got, stdout = outcome
        if got != code:
            return f"exit {got}, expected {code}"
        if ref is not None and json.loads(stdout) != json.loads(json.dumps(ref())):
            return "json output differs from the library result"
        return None

    tags = {"argv": argv, "code": code, "workdir": workdir}
    if probe:
        tags["probe"] = probe
    return Job(
        "poisset " + " ".join(argv),
        lambda: run_cli(argv, workdir),
        returns(verify),
        tags,
    )


BUILDERS = {"solve": solve, "verify": verify, "structure": structure, "cli": cli}
