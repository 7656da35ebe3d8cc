"""Acceptance suite: one test per headline guarantee, exact arithmetic.

Run with -v to get one pass/fail line per criterion:

  * crown classification over Q and Z/5: dimension 4, unit-indicator basis
    reproducing the frozen 4-crown table, < 5 s
  * chains n = 2..6 have a one-dimensional, standard structure space,
    < 30 s for n = 6
  * the (1,2,3,4)-weighted crown bracket is a Poisson structure that is
    not standard
  * bijection: 50 random chain-constant sigmas per corpus poset over Q
    and Z/3 generate brackets passing every check and roundtripping,
    < 5 min total
  * bracket values depend only on the interval restrictions of the
    arguments (100 samples per poset)
  * the idempotent lemma suite passes corpus-wide (20 random elements),
    on the boolean lattice on 4 atoms with dense sigma in < 1 s, and on a
    300-element antichain (zero bracket, 5 samples) in < 2 s with exact
    pass counts
  * proportionality scalars exist exactly on non-commuting basis pairs,
    are symmetric, and satisfy the four equational constraints
  * overlapping-maximal-chain posets have a single chain component and
    solver dimension 1
  * algebra core: associativity, identity, and the basis multiplication
    table, exhaustive, < 30 s
  * chain components of the 300- and 600-chains, of the boolean lattice
    on 7 atoms and of a 3,000-cover broom, < 5 s each; `poisset
    components` on the 300-chain gives one class
  * the maximal chains of the boolean lattice on 8 atoms overlap, < 1 s
  * the Leibniz and Jacobi checks of a dense-sigma 20-chain bracket
    (9,261,000 basis triples) pass, < 6 s each
  * on a 3,000-element antichain with the zero bracket, the Leibniz and
    Jacobi checks and is_standard take < 1 s each, with exact pass counts
  * classification of the boolean lattice on 4 atoms over Q (262,440
    unknowns), < 10 s, and of the 12-chain over Z/7 (234,234 unknowns),
    < 15 s; of bool5 over Q, < 8 s, the 20-chain over Z/7, < 15 s, bool6
    over Q, < 30 s, bool7 over Q (16,256 live columns), < 20 s, and the
    40-chain over Z/7 (11,440 live columns), < 20 s: dimension 1, matching
    the one chain component
  * census: every naturally labelled poset of 1-6 elements (5,231 posets)
    classifies over Q, Z/2 and Z/3 with dimension = chain components,
    < 30 s
"""

import json
import random
import time

import pytest

from conftest import CORPUS, boolean_lattice, broom, fence, natural_posets, random_sigma
from test_bracket import assert_lambda_relations, crown_table

from poisset import (
    RATIONALS,
    Bracket,
    IncidenceElement,
    Poset,
    SigmaMap,
    build_system,
    check_antisymmetric,
    check_biderivation,
    check_jacobi,
    classify,
    extract_lambda,
    extract_sigma,
    from_sigma,
    integers_mod,
    is_standard,
    lemma_suite,
    make_chain,
    nullspace,
    random_element,
)
from poisset.cli import main

Q = RATIONALS


@pytest.fixture(scope="module")
def solver_bases():
    """Nullspace of the Leibniz system over Q, one per corpus poset."""
    return {
        name: nullspace(build_system(poset, Q)) for name, poset in CORPUS
    }


def test_crown_classification(crown):
    started = time.perf_counter()
    for ring in (Q, integers_mod(5)):
        report = classify(crown, ring)
        assert report.dimension == 4
        assert report.chain_component_count == 4
        assert report.match

        expected = {}
        for x, y in crown.strict_pairs():
            e_xy = IncidenceElement.basis(crown, ring, x, y)
            expected[(x, y)] = Bracket.from_basis_table(
                crown,
                ring,
                {
                    ((x, x), (x, y)): e_xy,
                    ((x, y), (y, y)): e_xy,
                },
            )
        seen = set()
        for sigma, vector in zip(report.sigmas, report.basis.vectors):
            support = [p for p, v in sigma.values.items() if not v.is_zero()]
            assert len(support) == 1
            assert sigma.values[support[0]].is_one()
            assert vector == expected[support[0]]
            seen.add(support[0])
        assert seen == set(crown.strict_pairs())
    assert time.perf_counter() - started < 5.0


def test_chain_standardness():
    for n in range(2, 6):
        basis = nullspace(build_system(make_chain(n), Q))
        assert basis.dimension == 1
        witness = is_standard(basis.vectors[0])
        assert witness is not None and witness.is_central()

    started = time.perf_counter()
    basis = nullspace(build_system(make_chain(6), Q))
    assert basis.dimension == 1
    (vector,) = basis.vectors
    witness = is_standard(vector)
    assert witness is not None and witness.is_central()
    rng = random.Random(6)
    chain6 = make_chain(6)
    for _ in range(3):
        f = random_element(chain6, Q, rng)
        g = random_element(chain6, Q, rng)
        assert vector.evaluate(f, g) == witness * f.commutator(g)
    assert time.perf_counter() - started < 30.0


def test_crown_non_standardness(crown):
    bracket = Bracket.from_basis_table(crown, Q, crown_table(1, 2, 3, 4))
    assert check_antisymmetric(bracket).ok
    assert check_biderivation(bracket).ok
    assert check_jacobi(bracket).ok
    assert is_standard(bracket) is None


def test_bijection_suite():
    started = time.perf_counter()
    for pi, (name, poset) in enumerate(CORPUS):
        for ri, ring in enumerate((Q, integers_mod(3))):
            rng = random.Random(1000 * pi + ri)
            for _ in range(50):
                sigma = random_sigma(poset, ring, rng)
                bracket = from_sigma(sigma)
                assert check_antisymmetric(bracket).ok, name
                assert check_biderivation(bracket).ok, name
                assert check_jacobi(bracket).ok, name
                assert extract_sigma(bracket, check=False) == sigma, name
    assert time.perf_counter() - started < 300.0


def test_restriction_locality():
    for pi, (name, poset) in enumerate(CORPUS):
        rng = random.Random(2000 + pi)
        bracket = from_sigma(random_sigma(poset, Q, rng))
        intervals = poset.intervals()
        if not intervals:
            continue
        for _ in range(100):
            f = random_element(poset, Q, rng)
            g = random_element(poset, Q, rng)
            lo, hi = intervals[rng.randrange(len(intervals))]
            full = bracket.evaluate(f, g).coeff(lo, hi)
            local = bracket.evaluate(
                f.restrict(lo, hi), g.restrict(lo, hi)
            ).coeff(lo, hi)
            assert local == full, name


def test_lemma_suite_corpus():
    for pi, (name, poset) in enumerate(CORPUS):
        rng = random.Random(3000 + pi)
        bracket = from_sigma(random_sigma(poset, Q, rng))
        report = lemma_suite(bracket, samples=20, seed=pi)
        assert report.ok, (name, report.failures[:3])


def test_lemma_suite_dense_bool4():
    bool4 = boolean_lattice(4)
    bracket = from_sigma(SigmaMap(bool4, Q, {pair: 3 for pair in bool4.strict_pairs()}))
    started = time.perf_counter()
    report = lemma_suite(bracket, samples=20)
    assert time.perf_counter() - started < 1.0
    assert report.ok


def test_lemma_suite_antichain300():
    n = 300
    poset = Poset([str(i) for i in range(n)], [])
    started = time.perf_counter()
    report = lemma_suite(Bracket.from_basis_table(poset, Q, {}), samples=5)
    assert time.perf_counter() - started < 2.0
    assert report.ok
    assert report.pass_counts == {
        "orthogonal_vanishing": n * (n - 1),
        "sandwich_transport": 5 * n**3,
        "endpoint_exchange": 5 * n**2,
        "forward_chaining": 5 * n * (n - 1) * (n - 2),
        "backward_chaining": 5 * n * (n - 1) * (n - 2),
        "corner_support": 5 * n * (n - 1) * ((n - 1) + (n - 2) ** 2),
    }


def test_lambda_structure(solver_bases):
    for name, poset in CORPUS:
        intervals = poset.intervals()
        basis_elements = {
            iv: IncidenceElement.basis(poset, Q, *iv) for iv in intervals
        }
        for vector in solver_bases[name].vectors:
            lam = extract_lambda(vector)
            for i in intervals:
                for j in intervals:
                    commutes = (
                        basis_elements[i].commutator(basis_elements[j]).is_zero()
                    )
                    assert ((i, j) in lam) == (not commutes), name
            for (i, j), value in lam.items():
                assert lam[(j, i)] == value, name
            assert_lambda_relations(poset, lam)


def test_chain_overlap_corollary(solver_bases):
    qualifying = [
        name
        for name, poset in CORPUS
        if poset.maximal_chain_overlap()
        and len(poset.connected_components()) == 1
        and poset.strict_pairs()
    ]
    assert qualifying == [
        "chain2",
        "chain3",
        "chain4",
        "chain5",
        "diamond",
        "bool2",
        "bool3",
    ]
    for name, poset in CORPUS:
        if name in qualifying:
            assert len(poset.chain_components()) == 1, name
            assert solver_bases[name].dimension == 1, name


def test_algebra_core():
    started = time.perf_counter()
    for name, poset in CORPUS:
        basis = [IncidenceElement.basis(poset, Q, *iv) for iv in poset.intervals()]
        delta = IncidenceElement.delta(poset, Q)
        zero = IncidenceElement.zero(poset, Q)
        for pos, i in enumerate(poset.intervals()):
            e_i = basis[pos]
            assert delta * e_i == e_i and e_i * delta == e_i
            for qos, j in enumerate(poset.intervals()):
                e_j = basis[qos]
                product = e_i * e_j
                if i.hi == j.lo:
                    assert product == IncidenceElement.basis(
                        poset, Q, i.lo, j.hi
                    ), name
                else:
                    assert product == zero, name
                for e_k in basis:
                    assert (e_i * e_j) * e_k == e_i * (e_j * e_k), name
    assert time.perf_counter() - started < 30.0


@pytest.mark.parametrize(
    "build,classes",
    [
        pytest.param(lambda: make_chain(300), 1, id="chain300"),
        pytest.param(lambda: boolean_lattice(7), 1, id="bool7"),
        pytest.param(lambda: make_chain(600), 1, id="chain600"),
        # 3,000 covers: 2,950 under the bottom, each its own class but the
        # first, and the 50 of the handle
        pytest.param(lambda: broom(2950, 50), 2950, id="broom3000"),
    ],
)
def test_chain_components_scale(build, classes):
    poset = build()
    started = time.perf_counter()
    partition = poset.chain_components()
    assert time.perf_counter() - started < 5.0
    assert len(partition) == classes
    assert sum(map(len, partition.classes)) == len(poset.strict_pairs())


def test_maximal_chain_overlap_bool8():
    bool8 = boolean_lattice(8)
    started = time.perf_counter()
    assert bool8.maximal_chain_overlap()
    assert time.perf_counter() - started < 1.0


def test_components_cli_on_chain300(tmp_path, capsys):
    path = tmp_path / "chain300.json"
    path.write_text(json.dumps(make_chain(300).to_json()), encoding="utf-8")
    assert main(["components", "--poset", str(path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["connected"] == [list(make_chain(300).elements)]
    assert len(data["chain_components"]) == 1
    assert len(data["chain_components"][0]) == 300 * 299 // 2


@pytest.fixture(scope="module")
def dense_chain20():
    chain = make_chain(20)
    return from_sigma(SigmaMap(chain, Q, {pair: 3 for pair in chain.strict_pairs()}))


@pytest.mark.parametrize(
    "check,names",
    [(check_biderivation, ("leibniz_1", "leibniz_2")), (check_jacobi, ("jacobi",))],
    ids=["biderivation", "jacobi"],
)
def test_verifiers_on_dense_chain20(dense_chain20, check, names):
    started = time.perf_counter()
    report = check(dense_chain20)
    assert time.perf_counter() - started < 6.0
    assert report.ok
    for name in names:
        assert report.pass_counts[name] == 210**3 == 9_261_000


def test_verifiers_on_zero_antichain3000():
    n = 3000
    poset = Poset([str(i) for i in range(n)], [])
    bracket = Bracket.from_basis_table(poset, Q, {})
    expected = [
        (check_biderivation, {"leibniz_1": n**3, "leibniz_2": n**3, "leibniz_equivalence": 1}),
        (check_jacobi, {"jacobi": n**3}),
    ]
    for check, pass_counts in expected:
        started = time.perf_counter()
        report = check(bracket)
        assert time.perf_counter() - started < 1.0, check.__name__
        assert report.ok and report.pass_counts == pass_counts
    started = time.perf_counter()
    witness = is_standard(bracket)
    assert time.perf_counter() - started < 1.0
    assert witness == IncidenceElement.zero(poset, Q)


@pytest.mark.parametrize(
    "build,ring,bound,dimension",
    [
        (lambda: boolean_lattice(4), Q, 10.0, 1),
        (lambda: make_chain(12), integers_mod(7), 15.0, 1),
        (lambda: boolean_lattice(5), Q, 8.0, 1),
        (lambda: make_chain(20), integers_mod(7), 15.0, 1),
        (lambda: boolean_lattice(6), Q, 30.0, 1),
        (lambda: boolean_lattice(7), Q, 20.0, 1),
        (lambda: make_chain(40), integers_mod(7), 20.0, 1),
        (lambda: fence(240), Q, 10.0, 239),
        (lambda: fence(240), integers_mod(7), 10.0, 239),
        (lambda: fence(960), Q, 3.0, 959),
        (lambda: fence(960), integers_mod(7), 3.0, 959),
    ],
    ids=[
        "bool4-Q",
        "chain12-Z7",
        "bool5-Q",
        "chain20-Z7",
        "bool6-Q",
        "bool7-Q",
        "chain40-Z7",
        "fence240-Q",
        "fence240-Z7",
        "fence960-Q",
        "fence960-Z7",
    ],
)
def test_classify_scale(build, ring, bound, dimension):
    poset = build()
    started = time.perf_counter()
    report = classify(poset, ring)
    assert time.perf_counter() - started < bound
    assert report.dimension == dimension
    assert report.match


def test_census_classification():
    started = time.perf_counter()
    for n in range(1, 7):
        for poset in natural_posets(n):
            for ring in (Q, integers_mod(2), integers_mod(3)):
                report = classify(poset, ring)
                assert report.match and report.dimension == len(poset.chain_components())
    assert time.perf_counter() - started < 30.0
