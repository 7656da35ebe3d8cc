"""Command-line interface: exit codes, JSON schemas, text rendering.

All invocations go through main(argv) in-process; files live in tmp_path.
Exit code contract: 0 clean, 1 checks found violations, 2 usage errors.
"""

import copy
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import poisset.cli
from conftest import antichain, corpus_params, fence3
from poisset import SigmaMap, RATIONALS, from_sigma, make_chain, make_crown
from poisset.cli import build_parser, main
from poisset.errors import BijectionViolation, PosetMismatch

CROWN = make_crown()


def crown_sigma_json():
    sigma = SigmaMap(
        CROWN,
        RATIONALS,
        {("1", "3"): 1, ("1", "4"): 2, ("2", "3"): 3, ("2", "4"): 4},
    )
    return sigma.to_json()


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture
def crown_file(tmp_path):
    return write(tmp_path, "crown.json", CROWN.to_json())


@pytest.fixture
def ex12_file(tmp_path):
    sigma = SigmaMap.from_json(CROWN, RATIONALS, crown_sigma_json())
    return write(tmp_path, "ex12.json", from_sigma(sigma).to_json())


class TestPosetInfo:
    def test_json_summary(self, crown_file, capsys):
        assert main(
            ["poset-info", "--poset", crown_file, "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["elements"] == ["1", "2", "3", "4"]
        assert data["intervals"] == 8
        assert data["strict_pairs"] == 4
        assert data["chain_components"] == 4
        assert data["maximal_chain_overlap"] is False

    @pytest.mark.parametrize("poset", corpus_params())
    def test_strict_pairs_are_counted(self, poset, tmp_path, capsys):
        path = write(tmp_path, "poset.json", poset.to_json())
        assert main(["poset-info", "--poset", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["strict_pairs"] == len(poset.strict_pairs())

    def test_text_summary(self, crown_file, capsys):
        assert main(["poset-info", "--poset", crown_file]) == 0
        out = capsys.readouterr().out
        assert "elements: 1 2 3 4" in out
        assert "chain components: 4" in out

    def test_output_file(self, crown_file, tmp_path, capsys):
        target = tmp_path / "info.json"
        assert main(
            [
                "poset-info",
                "--poset",
                crown_file,
                "--format",
                "json",
                "--output",
                str(target),
            ]
        ) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["intervals"] == 8


class TestComponents:
    def test_crown_components(self, crown_file, capsys):
        assert main(
            ["components", "--poset", crown_file, "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["connected"] == [["1", "2", "3", "4"]]
        assert len(data["chain_components"]) == 4


class TestClassify:
    def test_crown_json_schema(self, crown_file, capsys):
        assert main(
            ["classify", "--poset", crown_file, "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"dimension", "chain_components", "match", "basis"}
        assert data["dimension"] == 4
        assert data["match"] is True
        assert len(data["basis"]) == 4

    def test_crown_text(self, crown_file, capsys):
        assert main(["classify", "--poset", crown_file]) == 0
        out = capsys.readouterr().out
        assert "dimension: 4" in out
        assert "match: true" in out

    def test_modular_field(self, crown_file, capsys):
        assert main(
            ["classify", "--poset", crown_file, "--ring", "Z/5", "--format", "json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["dimension"] == 4

    def test_integers_are_not_a_field(self, crown_file, capsys):
        assert main(["classify", "--poset", crown_file, "--ring", "Z"]) == 2
        assert "field" in capsys.readouterr().err

    def test_composite_modulus_is_not_a_field(self, crown_file):
        assert main(["classify", "--poset", crown_file, "--ring", "Z/4"]) == 2

    def test_bijection_violation_exits_1(self, crown_file, monkeypatch, capsys):
        def refuse(poset, ring):
            raise BijectionViolation("dimension 3 != 4 chain components")

        monkeypatch.setattr(poisset.cli, "classify", refuse)
        assert main(["classify", "--poset", crown_file, "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "error": "BijectionViolation",
            "detail": "dimension 3 != 4 chain components",
        }
        assert main(["classify", "--poset", crown_file]) == 1
        out = capsys.readouterr().out
        assert out == "bijection violated: dimension 3 != 4 chain components\n"


class TestVerify:
    def test_full_table_passes(self, crown_file, ex12_file, capsys):
        assert main(
            ["verify", "--poset", crown_file, "--bracket", ex12_file]
        ) == 0
        assert "all checks pass" in capsys.readouterr().out

    def test_half_table_fails(self, crown_file, tmp_path, capsys):
        bracket = {
            "pairs": [
                {
                    "left": {"lo": "1", "hi": "1"},
                    "right": {"lo": "1", "hi": "3"},
                    "value": [{"lo": "1", "hi": "3", "coeff": "1"}],
                }
            ]
        }
        path = write(tmp_path, "half.json", bracket)
        assert main(["verify", "--poset", crown_file, "--bracket", path]) == 1
        out = capsys.readouterr().out
        assert "antisymmetry: FAIL" in out
        assert "violations found" in out

    def test_report_records_schema(self, crown_file, ex12_file, capsys):
        assert main(
            [
                "verify",
                "--poset",
                crown_file,
                "--bracket",
                ex12_file,
                "--format",
                "json",
            ]
        ) == 0
        records = json.loads(capsys.readouterr().out)
        assert all(set(r) == {"check", "instance", "status"} for r in records)
        assert {r["check"] for r in records} >= {
            "antisymmetry",
            "leibniz_1",
            "leibniz_2",
            "jacobi",
        }


class TestSigmaCommands:
    def test_from_sigma_roundtrip(self, crown_file, tmp_path, capsys):
        sigma_file = write(tmp_path, "sigma.json", crown_sigma_json())
        bracket_file = str(tmp_path / "bracket.json")
        assert main(
            [
                "from-sigma",
                "--poset",
                crown_file,
                "--sigma",
                sigma_file,
                "--format",
                "json",
                "--output",
                bracket_file,
            ]
        ) == 0
        assert main(
            ["verify", "--poset", crown_file, "--bracket", bracket_file]
        ) == 0
        capsys.readouterr()

        sigma_out = str(tmp_path / "sigma2.json")
        assert main(
            [
                "extract-sigma",
                "--poset",
                crown_file,
                "--bracket",
                bracket_file,
                "--format",
                "json",
                "--output",
                sigma_out,
            ]
        ) == 0
        assert json.loads(open(sigma_out).read()) == crown_sigma_json()

    def test_from_sigma_rejects_non_chain_constant(self, tmp_path, capsys):
        chain3 = make_chain(3)
        poset_file = write(tmp_path, "chain3.json", chain3.to_json())
        sigma = {
            "entries": [
                {"lo": "1", "hi": "2", "value": "1"},
                {"lo": "2", "hi": "3", "value": "2"},
                {"lo": "1", "hi": "3", "value": "1"},
            ]
        }
        sigma_file = write(tmp_path, "bad.json", sigma)
        assert main(
            ["from-sigma", "--poset", poset_file, "--sigma", sigma_file]
        ) == 1
        assert "not chain-constant" in capsys.readouterr().out

    def test_extract_sigma_requires_biderivation(self, crown_file, tmp_path, capsys):
        bracket = {
            "pairs": [
                {
                    "left": {"lo": "1", "hi": "1"},
                    "right": {"lo": "1", "hi": "3"},
                    "value": [{"lo": "1", "hi": "3", "coeff": "1"}],
                }
            ]
        }
        path = write(tmp_path, "half.json", bracket)
        assert main(
            ["extract-sigma", "--poset", crown_file, "--bracket", path]
        ) == 1
        assert "not an antisymmetric biderivation" in capsys.readouterr().out

    def test_extract_sigma_without_strict_pairs(self, tmp_path, capsys):
        poset_file = write(tmp_path, "antichain2.json", antichain(2).to_json())
        bracket_file = write(tmp_path, "empty.json", {"pairs": []})
        assert main(["extract-sigma", "--poset", poset_file, "--bracket", bracket_file]) == 0
        assert capsys.readouterr().out == "(no strict pairs)\n"


class TestIsStandard:
    def test_crown_table_is_not_standard(self, crown_file, ex12_file, capsys):
        assert main(
            [
                "is-standard",
                "--poset",
                crown_file,
                "--bracket",
                ex12_file,
                "--format",
                "json",
            ]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"standard": False, "lambda": None}

    def test_constant_chain_bracket_is_standard(self, tmp_path, capsys):
        chain3 = make_chain(3)
        poset_file = write(tmp_path, "chain3.json", chain3.to_json())
        sigma = SigmaMap(
            chain3, RATIONALS, {p: RATIONALS.scalar(2) for p in chain3.strict_pairs()}
        )
        bracket_file = write(
            tmp_path, "bracket.json", from_sigma(sigma).to_json()
        )
        assert main(
            [
                "is-standard",
                "--poset",
                poset_file,
                "--bracket",
                bracket_file,
                "--format",
                "json",
            ]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["standard"] is True
        assert {e["coeff"] for e in data["lambda"]["entries"]} == {"2"}

    def test_corrupted_table_is_refused(self, crown_file, ex12_file, tmp_path, capsys):
        # the crown's table with e_xx added to a value whose left interval
        # (x, y) is strict: Leibniz fails at (e_xy, e_yy, right), exit 1
        with open(ex12_file, encoding="utf-8") as handle:
            data = json.load(handle)
        entry = next(p for p in data["pairs"] if p["left"]["lo"] != p["left"]["hi"])
        x = entry["left"]["lo"]
        entry["value"].append({"lo": x, "hi": x, "coeff": "1"})
        path = write(tmp_path, "bad.json", data)
        argv = ["is-standard", "--poset", crown_file, "--bracket", path]
        assert main(argv) == 1
        assert capsys.readouterr().out.startswith("not an antisymmetric biderivation: ")
        assert main([*argv, "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "NotABiderivation"


class TestLemmaSuite:
    def test_passes_on_generated_bracket(self, crown_file, ex12_file, capsys):
        assert main(
            [
                "lemma-suite",
                "--poset",
                crown_file,
                "--bracket",
                ex12_file,
                "--samples",
                "2",
            ]
        ) == 0
        assert "all lemmas pass" in capsys.readouterr().out

    def test_reports_lemma_violations(self, crown_file, tmp_path, capsys):
        # nonzero value on a pair of orthogonal idempotents
        bracket = {
            "pairs": [
                {
                    "left": {"lo": "1", "hi": "1"},
                    "right": {"lo": "2", "hi": "2"},
                    "value": [{"lo": "1", "hi": "3", "coeff": "1"}],
                },
                {
                    "left": {"lo": "2", "hi": "2"},
                    "right": {"lo": "1", "hi": "1"},
                    "value": [{"lo": "1", "hi": "3", "coeff": "-1"}],
                },
            ]
        }
        path = write(tmp_path, "bad.json", bracket)
        assert main(
            [
                "lemma-suite",
                "--poset",
                crown_file,
                "--bracket",
                path,
                "--samples",
                "1",
            ]
        ) == 1
        assert "orthogonal_vanishing: FAIL" in capsys.readouterr().out


class TestExportDot:
    def test_writes_dot(self, crown_file, capsys):
        assert main(["export-dot", "--poset", crown_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert '"1" -> "3"' in out


class TestUsageErrors:
    def test_missing_file(self, capsys):
        assert main(["poset-info", "--poset", "/nonexistent.json"]) == 2
        assert "poisset:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["poset-info", "--poset", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_cyclic_poset_data(self, tmp_path):
        path = write(
            tmp_path,
            "cycle.json",
            {"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]},
        )
        assert main(["poset-info", "--poset", str(path)]) == 2

    def test_bad_ring_string(self, crown_file):
        assert main(["classify", "--poset", crown_file, "--ring", "Z/x"]) == 2
        assert main(["classify", "--poset", crown_file, "--ring", "GF4"]) == 2

    def test_ring_past_the_primality_bound_exits_2(self, crown_file, capsys):
        ring = f"Z/{3_317_044_064_679_887_385_961_981}"
        assert main(["classify", "--poset", crown_file, "--ring", ring]) == 2
        err = capsys.readouterr().err
        assert err.startswith("poisset: ") and err.count("\n") == 1
        assert "too large" in err

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["classify"])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "data",
        [
            {"elements": [1, 2], "covers": [[1, 2]]},
            {"elements": ["1", "2"], "covers": [["1", 2]]},
            {"elements": ["1", "2"], "covers": [["1", "2", "3"]]},
        ],
        ids=["int-labels", "int-cover-end", "long-cover"],
    )
    def test_non_string_labels_exit_2(self, tmp_path, capsys, data):
        path = write(tmp_path, "labels.json", data)
        assert main(["poset-info", "--poset", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("poisset: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_negative_samples_exit_2(self, crown_file, ex12_file, capsys):
        argv = ["lemma-suite", "--poset", crown_file, "--bracket", ex12_file]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--samples", "-3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--samples: must be >= 0" in err
        assert main([*argv, "--samples", "0"]) == 0

    def test_non_integer_samples_exit_2(self, crown_file, ex12_file, capsys):
        argv = ["lemma-suite", "--poset", crown_file, "--bracket", ex12_file]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--samples", "x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--samples: invalid int value: 'x'" in err

    def test_check_error_in_a_command_exits_1(self, crown_file, monkeypatch, capsys):
        # main's last handler: a PoissetError that is no input error
        def fail(args, poset):
            raise PosetMismatch("elements live over different posets")

        monkeypatch.setattr(poisset.cli, "_cmd_export_dot", fail)
        assert main(["export-dot", "--poset", crown_file]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "poisset: PosetMismatch: elements live over different posets\n"

    @pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["no-dir", "a-dir"])
    def test_unwritable_output_exits_2(self, crown_file, tmp_path, capsys, target):
        output = str(tmp_path / target)
        argv = ["poset-info", "--poset", crown_file, "--format", "json", "--output", output]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"poisset: {output}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "content",
        [
            b"[" * 200_000,
            b'{"elements": [' + b"7" * 5000 + b'], "covers": []}',
            b'\xff{"elements": [], "covers": []}',
        ],
        ids=["nested-too-deep", "long-number-literal", "not-utf8"],
    )
    def test_json_the_decoder_refuses_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "poset.json"
        path.write_bytes(content)
        assert main(["poset-info", "--poset", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"poisset: {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("poset-info", "--ring", "Q"),
            ("components", "--ring", "Q"),
            ("export-dot", "--ring", "Q"),
            ("export-dot", "--format", "text"),
        ],
    )
    def test_flags_a_command_does_not_read_exit_2(self, crown_file, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([command, "--poset", crown_file, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("poset-info", {"format": "json"}),
            ("components", {"format": "json"}),
            ("classify", {"format": "json", "ring": "Z/5"}),
            ("verify", {"format": "json", "ring": "Z", "bracket": "b.json"}),
            ("from-sigma", {"format": "json", "ring": "Z", "sigma": "s.json"}),
            ("extract-sigma", {"format": "json", "ring": "Z", "bracket": "b.json"}),
            ("is-standard", {"format": "json", "ring": "Z", "bracket": "b.json"}),
            (
                "lemma-suite",
                {"format": "json", "ring": "Z", "bracket": "b.json", "samples": 3, "seed": 4},
            ),
            ("export-dot", {}),
        ],
    )
    def test_kept_flags_parse(self, command, flags):
        flags = {"poset": "p.json", "output": "o.txt", **flags}
        argv = [command]
        for name, value in flags.items():
            argv += [f"--{name}", str(value)]
        args = build_parser().parse_args(argv)
        assert {name: getattr(args, name) for name in flags} == flags

    def test_fence_components_render(self, tmp_path, capsys):
        poset_file = write(tmp_path, "fence.json", fence3().to_json())
        assert main(["components", "--poset", poset_file]) == 0
        out = capsys.readouterr().out
        assert "(a,b)" in out and "(c,b)" in out


class TestMalformedTables:
    """Malformed sigma and bracket files exit 2 with one line, no traceback."""

    def run(self, argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert err.startswith("poisset: ") and err.count("\n") == 1, err
        return code

    def test_sigma_top_level_list(self, crown_file, tmp_path, capsys):
        sigma = write(tmp_path, "sigma.json", [])
        argv = ["from-sigma", "--poset", crown_file, "--sigma", sigma]
        assert self.run(argv, capsys) == 2

    def test_bracket_top_level_list(self, crown_file, tmp_path, capsys):
        bracket = write(tmp_path, "bracket.json", [])
        argv = ["verify", "--poset", crown_file, "--bracket", bracket]
        assert self.run(argv, capsys) == 2

    def test_sigma_value_not_a_string(self, crown_file, tmp_path, capsys):
        data = crown_sigma_json()
        data["entries"][0]["value"] = 3
        sigma = write(tmp_path, "sigma.json", data)
        argv = ["from-sigma", "--poset", crown_file, "--sigma", sigma]
        assert self.run(argv, capsys) == 2

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([{"hi": "3", "value": "1"}], "sigma entry {'hi': '3', 'value': '1'} has no 'lo'"),
            (3, "sigma JSON must be an object with an 'entries' list"),
            (
                [{"lo": ["1"], "hi": "3", "value": "1"}],
                "sigma entry {'lo': ['1'], 'hi': '3', 'value': '1'}: 'lo' and 'hi' must be string labels",
            ),
        ],
        ids=["missing-lo", "entries-not-a-list", "list-label"],
    )
    def test_malformed_sigma_names_the_field(self, crown_file, tmp_path, capsys, entries, message):
        sigma = write(tmp_path, "sigma.json", {"entries": entries})
        assert main(["from-sigma", "--poset", crown_file, "--sigma", sigma]) == 2
        assert capsys.readouterr().err == f"poisset: {sigma}: {message}\n"

    GOOD_PAIR = {
        "left": {"lo": "1", "hi": "1"},
        "right": {"lo": "1", "hi": "3"},
        "value": [{"lo": "1", "hi": "3", "coeff": "1"}],
    }

    @pytest.mark.parametrize(
        "data, message",
        [
            (
                {"pairs": [{"right": {"lo": "1", "hi": "3"}, "value": []}]},
                "bracket pair {'right': {'lo': '1', 'hi': '3'}, 'value': []} has no 'left'",
            ),
            (
                {"pairs": [dict(GOOD_PAIR, value=[{"lo": "1", "coeff": "1"}])]},
                "entry {'lo': '1', 'coeff': '1'} has no 'hi'",
            ),
            ({"pairs": 3}, "bracket JSON 'pairs' must be a list"),
            (
                {"pairs": [dict(GOOD_PAIR, left={"lo": ["1"], "hi": "1"})]},
                "bracket interval {'lo': ['1'], 'hi': '1'}: 'lo' and 'hi' must be string labels",
            ),
        ],
        ids=["missing-left", "entry-missing-hi", "pairs-not-a-list", "list-label"],
    )
    def test_malformed_bracket_names_the_field(self, crown_file, tmp_path, capsys, data, message):
        bracket = write(tmp_path, "bracket.json", data)
        assert main(["verify", "--poset", crown_file, "--bracket", bracket]) == 2
        assert capsys.readouterr().err == f"poisset: {bracket}: {message}\n"

    def test_duplicate_sigma_entry(self, crown_file, tmp_path, capsys):
        data = crown_sigma_json()
        data["entries"].append(data["entries"][0])
        sigma = write(tmp_path, "sigma.json", data)
        argv = ["from-sigma", "--poset", crown_file, "--sigma", sigma]
        assert self.run(argv, capsys) == 2

    def test_bracket_value_key_not_an_interval(self, crown_file, tmp_path, capsys):
        value = [{"lo": "3", "hi": "1", "coeff": "1"}]
        pair = {"left": {"lo": "1", "hi": "1"}, "right": {"lo": "1", "hi": "3"}, "value": value}
        bracket = write(tmp_path, "bracket.json", {"pairs": [pair]})
        argv = ["verify", "--poset", crown_file, "--bracket", bracket]
        assert self.run(argv, capsys) == 2

    def test_cancelling_duplicate_bracket_entries(self, crown_file, tmp_path, capsys):
        # 1 and -1 at (1, 3) once summed to a zero table that passed
        value = [
            {"lo": "1", "hi": "3", "coeff": "1"},
            {"lo": "1", "hi": "3", "coeff": "-1"},
        ]
        pair = {"left": {"lo": "1", "hi": "1"}, "right": {"lo": "1", "hi": "3"}, "value": value}
        bracket = write(tmp_path, "bracket.json", {"pairs": [pair]})
        argv = ["verify", "--poset", crown_file, "--bracket", bracket]
        assert self.run(argv, capsys) == 2


# -- fuzzing: mutated poset, sigma and bracket files ----------------------------

FUZZ_VALUES = [None, 0, 3, -1, 2.5, True, "", "zz", "1/0", "x", [], {}, ["1", "3"], {"lo": "1"}]


def _positions(holder):
    """(container, key) for every value inside holder, holder's own included."""
    stack = [holder]
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            yield node, key
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])


@st.composite
def mutated(draw, document):
    """document after one to three mutations: a key or list item dropped, a
    value swapped for one of another type, a list entry duplicated, or a
    string replaced by a label the poset does not have."""
    holder = [copy.deepcopy(document)]
    for _ in range(draw(st.integers(1, 3))):
        node, key = draw(st.sampled_from(list(_positions(holder))))
        op = draw(st.sampled_from(["drop", "swap", "duplicate", "unknown"]))
        value = node[key]
        if op == "drop" and node is not holder:
            del node[key]
        elif op == "duplicate" and isinstance(value, list) and value:
            value.append(copy.deepcopy(draw(st.sampled_from(value))))
        elif op == "unknown" and isinstance(value, str):
            node[key] = "zz"
        else:
            node[key] = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
    return holder[0]


def _fuzz_documents():
    sigma = crown_sigma_json()
    bracket = from_sigma(SigmaMap.from_json(CROWN, RATIONALS, sigma)).to_json()
    return {"poset": CROWN.to_json(), "sigma": sigma, "bracket": bracket}


FUZZ_DOCUMENTS = _fuzz_documents()
FUZZ_COMMANDS = {
    "poset": [["poset-info"], ["components"], ["classify"]],
    "sigma": [["from-sigma"]],
    "bracket": [
        ["verify"],
        ["extract-sigma"],
        ["is-standard"],
        ["lemma-suite", "--samples", "1"],
    ],
}


class TestFuzz:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_mutated_input_never_escapes(self, data):
        kind = data.draw(st.sampled_from(sorted(FUZZ_DOCUMENTS)))
        documents = dict(FUZZ_DOCUMENTS)
        documents[kind] = data.draw(mutated(FUZZ_DOCUMENTS[kind]))
        command = data.draw(st.sampled_from(FUZZ_COMMANDS[kind]))
        with tempfile.TemporaryDirectory() as workdir:
            paths = {}
            for name, document in documents.items():
                paths[name] = os.path.join(workdir, f"{name}.json")
                with open(paths[name], "w", encoding="utf-8") as handle:
                    json.dump(document, handle)
            argv = [command[0], "--poset", paths["poset"], *command[1:]]
            if kind != "poset":
                argv += [f"--{kind}", paths[kind]]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().count("\n") == 1
