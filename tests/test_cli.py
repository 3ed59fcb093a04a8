import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from globop import verify
from globop.cli import main
from globop.verify import SUITE_NAMES

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_trees_to_file(tmp_path, capsys):
    out = tmp_path / "trees.jsonl"
    code, _, err = run(capsys, "trees", "--dim", "1", "--max-size", "5", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines == ["[]", "[[]]", "[[],[]]"]
    assert "count 3" in err


def test_trees_dim0(capsys):
    code, out, err = run(capsys, "trees", "--dim", "0", "--max-size", "1")
    assert code == 0
    assert out.splitlines() == ["[]"]
    assert "count 1" in err


def test_trees_in_a_high_dimension(capsys):
    code, out, err = run(capsys, "trees", "--dim", "3000", "--max-size", "3")
    assert code == 0
    assert len(out.splitlines()) == 2
    assert "count 2" in err


def test_trees_dim2_count_matches_oracle(tmp_path, capsys):
    from globop.oracle import oracle_trees

    out = tmp_path / "trees.jsonl"
    code, _, err = run(capsys, "trees", "--dim", "2", "--max-size", "7", "--out", str(out))
    assert code == 0
    assert len(out.read_text().splitlines()) == len(oracle_trees(2, 7))


def test_build_initial_counts_and_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code1, out1, _ = run(
        capsys, "build-initial", "--dim", "1", "--max-arity-size", "5",
        "--max-term-size", "1", "--out", str(a),
    )
    code2, out2, _ = run(
        capsys, "build-initial", "--dim", "1", "--max-arity-size", "5",
        "--max-term-size", "1", "--out", str(b),
    )
    assert code1 == code2 == 0
    assert out1 == out2
    assert "dim 0: 1" in out1 and "dim 1: 4" in out1
    assert a.read_bytes() == b.read_bytes()


def test_build_initial_dim0(capsys, tmp_path):
    out = tmp_path / "s.json"
    code, text, _ = run(
        capsys, "build-initial", "--dim", "0", "--max-arity-size", "1",
        "--max-term-size", "1", "--out", str(out),
    )
    assert code == 0
    assert text.strip() == "dim 0: 1"


def test_build_initial_rejects_tight_arity(capsys):
    code, _, err = run(capsys, "build-initial", "--dim", "2", "--max-arity-size", "3")
    assert code == 2
    assert "at least 5" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build-initial", "--dim", "-1"], "non-negative"),
        (["build-initial", "--max-term-size", "-2"], "non-negative"),
        (["verify", "--suite", "globularity", "--dim", "-1"], "non-negative"),
        (["trees", "--dim", "-1", "--max-size", "3"], "non-negative"),
        (["verify", "--suite", "globularity", "--dim", "3", "--max-arity-size", "5"], "at least 7"),
    ],
    ids=["build-dim", "build-term-size", "verify-dim", "trees-dim", "verify-tight-arity"],
)
def test_invalid_bounds_exit_2_with_one_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("invalid bounds: ") and message in err
    assert err.count("\n") == 1


def test_verify_empty_suite_list(capsys):
    """Without ``--suite`` a verify checked nothing and passed; argparse
    exits 2 instead."""
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "the following arguments are required: --suite" in out.err


def test_verify_without_a_suite_does_not_pass_a_corrupted_fixture(tmp_path, capsys):
    reports = tmp_path / "reports.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--input", str(FIXTURES / "corrupt_state_mult.json"), "--out", str(reports)])
    assert exc.value.code == 2
    assert "required: --suite" in capsys.readouterr().err
    assert not reports.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["trees", "--dim", "1", "--max-size", "3"],
        ["build-initial", "--dim", "0", "--max-arity-size", "1", "--max-term-size", "1"],
        ["verify", "--suite", "monoid-laws", "--input", str(FIXTURES / "valid_subst_vectors.json")],
    ],
    ids=["trees", "build-initial", "verify"],
)
def test_unwritable_out_exits_2_with_one_line(tmp_path, capsys, argv):
    """An ``--out`` that cannot be written is a usage error, not a traceback
    and, for ``verify``, not a failed suite."""
    out = tmp_path / "missing" / "out.json"
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert err.startswith("cannot write output: ") and str(out) in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 2
    assert "unknown suite" in err


def test_verify_all_does_not_hide_an_unknown_suite(capsys):
    """``all`` beside an unknown name used to run every suite and pass."""
    fixture = str(FIXTURES / "valid_subst_vectors.json")
    for suites in (["all", "bogus"], ["bogus", "all"]):
        argv = [arg for name in suites for arg in ("--suite", name)]
        code, out, err = run(capsys, "verify", *argv, "--input", fixture)
        assert code == 2
        assert err == "unknown suite: bogus\n" and out == ""


def test_verify_malformed_state_fixture(tmp_path, capsys):
    fixture = tmp_path / "partial.json"
    fixture.write_text(json.dumps({"stage": [1, 1]}))
    code, _, err = run(capsys, "verify", "--suite", "operad-laws", "--input", str(fixture))
    assert code == 2
    assert "malformed fixture" in err and "unknown suite" not in err


def test_verify_fixture_that_is_not_json(tmp_path, capsys):
    fixture = tmp_path / "state.json"
    fixture.write_text("not json\n")
    code, _, err = run(capsys, "verify", "--suite", "operad-laws", "--input", str(fixture))
    assert code == 2
    assert "malformed fixture" in err


def test_verify_unreadable_fixture(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, out, err = run(
        capsys, "verify", "--suite", "operad-laws", "--suite", "globularity",
        "--input", str(missing),
    )
    assert code == 2
    assert "cannot read fixture" in err and str(missing) in err
    assert out == ""


def test_verify_single_suite_with_reports(tmp_path, capsys):
    reports = tmp_path / "reports.json"
    code, out, _ = run(
        capsys, "verify", "--suite", "monoid-laws", "--out", str(reports),
        "--input", str(FIXTURES / "valid_subst_vectors.json"),
    )
    assert code == 0
    assert "monoid-laws: pass" in out
    data = json.loads(reports.read_text())
    assert data[0]["suite"] == "monoid-laws" and data[0]["pass"] is True


def test_verify_monoid_laws_reports_what_it_covered(tmp_path, capsys):
    reports = tmp_path / "reports.json"
    code, out, _ = run(capsys, "verify", "--suite", "monoid-laws", "--out", str(reports))
    assert code == 0
    assert "monoid-laws: pass" in out
    counts = json.loads(reports.read_text())[0]["counts"]
    assert counts == {
        "unit_law_trees": 8, "shapes": 13, "labellings": 115, "nested_labellings": 5247,
    }


def test_verify_corrupted_fixture_fails(tmp_path, capsys):
    reports = tmp_path / "reports.json"
    code, out, _ = run(
        capsys, "verify", "--suite", "globularity",
        "--input", str(FIXTURES / "corrupt_globset.json"), "--out", str(reports),
    )
    assert code == 1
    assert "globularity: FAIL" in out
    data = json.loads(reports.read_text())
    assert data[0]["pass"] is False and data[0]["violations"]


@pytest.mark.parametrize(
    "name, code, verdict, cells",
    [
        ("valid_state", 0, "pass", 109),
        ("corrupt_state_cells", 1, "FAIL", 109),
        ("corrupt_globset", 1, "FAIL", 5),
    ],
)
def test_verify_globularity_reads_the_collection_of_a_state(tmp_path, capsys, name, code, verdict, cells):
    """Given a state, globularity checks its collection, as a globular set
    and as a collection (the corrupted contraction cell of
    ``corrupt_state_cells`` has an arity other than its theta); a globular
    set fixture is read as before."""
    reports = tmp_path / "reports.json"
    got, out, err = run(
        capsys, "verify", "--suite", "globularity",
        "--input", str(FIXTURES / f"{name}.json"), "--out", str(reports),
    )
    assert (got, err) == (code, "")
    assert out.startswith(f"globularity: {verdict} ")
    assert json.loads(reports.read_text())[0]["counts"] == {"cells": cells}


def test_verify_initiality_probe_rejects_partial_contraction(tmp_path, capsys):
    reports = tmp_path / "reports.json"
    code, out, _ = run(
        capsys, "verify", "--suite", "initiality-probe",
        "--input", str(FIXTURES / "corrupt_state_gamma_missing.json"), "--out", str(reports),
    )
    assert code == 1
    assert "initiality-probe: FAIL" in out
    data = json.loads(reports.read_text())
    assert data[0]["pass"] is False and data[0]["violations"]


@pytest.mark.parametrize("case", ["src", "mult-labels-cover"])
@pytest.mark.parametrize("suite", ["operad-laws", "contraction-laws", "stability-operad"])
def test_verify_rejects_a_malformed_index(tmp_path, capsys, case, suite):
    from test_serialize import malformed

    fixture = tmp_path / "state.json"
    fixture.write_text(json.dumps(malformed(case)[1]))
    code, out, err = run(capsys, "verify", "--suite", suite, "--input", str(fixture))
    assert code == 2
    assert "malformed fixture" in err and out == ""


def _edited_state(tmp_path, edit):
    data = json.loads((FIXTURES / "valid_state.json").read_text())
    edit(data)
    fixture = tmp_path / "state.json"
    fixture.write_text(json.dumps(data))
    return fixture


def _nested(atom, depth):
    for _ in range(depth):
        atom = [atom]
    return atom


def _node_19(data):
    # NodeTerm(1, CtrCell('v', 'v', PD(1, [])), ('v',)), whose arity is a point
    return data["cells"][1][19]["cell"]["node"]


def _top_label_unit_labelled(node, data):
    node["labels"][2] = {"node": {**_node_19(data), "labels": [{"unit": 0}]}}


HOSTILE = {
    "provenance-list": lambda data: data["cells"][0][0].update(provenance=[]),
    "provenance-string": lambda data: data["cells"][0][0].update(provenance="input"),
    # deeper than the decoder's recursion goes, not than the JSON parser's
    "atom-nested-700": lambda data: data["cells"][0][0].update(cell={"atom": _nested("v", 700)}),
    # a dimension is an int: each of these used to decode as one
    "unit-dim-float": lambda data: data["cells"][1][18].update(cell={"unit": 1.5}),
    "unit-dim-bool": lambda data: data["cells"][1][18].update(cell={"unit": True}),
    "unit-dim-string": lambda data: data["cells"][1][18].update(cell={"unit": "1"}),
    "node-dim-string": lambda data: data["cells"][0][2]["cell"]["node"].update(dim="0"),
    "ctr-dim-string": lambda data: data["cells"][1][0]["cell"]["gen"]["ctr"].update(dim="1"),
    # the encoder has always written it, and the decoder reads it from nowhere else
    "ctr-no-dim": lambda data: data["cells"][1][0]["cell"]["gen"]["ctr"].pop("dim"),
    # nodes grafting does not build, listed or as a label of a listed node
    "node-unit-labels": lambda data: _node_19(data).update(labels=[{"unit": 0}]),
    "node-label-count": lambda data: _node_19(data).update(labels=[{"atom": "v"}, {"atom": "v"}]),
    "node-dim": lambda data: _node_19(data).update(dim=0),
    "node-gen-a-term": lambda data: _node_19(data).update(
        gen={"unit": 1}, labels=[{"atom": "v"}, {"atom": "v"}, data["cells"][1][1]["cell"]]
    ),
    "node-label-unit-labels": lambda data: _top_label_unit_labelled(data["cells"][1][21]["cell"]["node"], data),
    # an atom is a string, an int or a list of them, as the encoder writes
    # it: each of these used to decode, and the state then failed to encode
    "atom-null": lambda data: data["cells"][0][0]["cell"]["gen"].update(atom=None),
    "atom-float": lambda data: data["cells"][0][0]["cell"]["gen"].update(atom=1.5),
    # an overflow is two strings, two ints and a list of strings, and a
    # provenance a step name with an int or null stratum: each of these used
    # to decode
    "overflow-count-null": lambda data: data["overflows"][0].update(count=None),
    "overflow-count-list": lambda data: data["overflows"][0].update(count=[]),
    "overflow-count-object": lambda data: data["overflows"][0].update(count={}),
    "overflow-reason-list": lambda data: data["overflows"][0].update(reason=[]),
    "overflow-step-list": lambda data: data["overflows"][0].update(step=[0]),
    "provenance-step-list": lambda data: data["cells"][0][0]["provenance"].update(step=[0]),
    "provenance-stratum-string": lambda data: data["cells"][0][0]["provenance"].update(stratum="x"),
    # a ladder has a layer of cells at every dimension up to max_dim: padding
    # the rebuilt input up to these used to raise MemoryError and OverflowError
    "max-dim-2to40": lambda data: data["bounds"].update(max_dim=2**40),
    "max-dim-2to64": lambda data: data["bounds"].update(max_dim=2**64),
}


@pytest.mark.parametrize("cells", [{"a": 1}, [{"a": 1}]], ids=["object", "object-layer"])
def test_verify_globularity_rejects_layers_that_are_not_lists(tmp_path, capsys, cells):
    fixture = _edited_state(tmp_path, lambda data: data.update(cells=cells))
    code, out, err = run(capsys, "verify", "--suite", "globularity", "--input", str(fixture))
    assert code == 2
    assert "malformed fixture" in err and "not a list" in err and out == ""


@pytest.mark.parametrize("case", HOSTILE)
@pytest.mark.parametrize("suite", ["operad-laws", "contraction-laws", "stability-operad"])
def test_verify_rejects_hostile_state_without_a_traceback(tmp_path, capsys, case, suite):
    fixture = _edited_state(tmp_path, HOSTILE[case])
    code, out, err = run(capsys, "verify", "--suite", suite, "--input", str(fixture))
    assert code == 2
    assert "malformed fixture" in err and out == ""


@pytest.mark.parametrize("suite", ["stability-contraction", "ladder-coherence", "oracle-equivalence"])
def test_verify_rejects_a_max_dim_beyond_the_layers_before_rebuilding(tmp_path, capsys, suite):
    """These suites rebuild the ladder from the state's input cells, padded
    up to ``max_dim``: the decoder refuses the bound first."""
    fixture = _edited_state(tmp_path, HOSTILE["max-dim-2to40"])
    code, out, err = run(capsys, "verify", "--suite", suite, "--input", str(fixture))
    assert code == 2
    assert "malformed fixture" in err and "beyond the 2 layers of cells" in err and out == ""


@pytest.mark.parametrize("suite", ["operad-laws", "contraction-laws", "stability-operad"])
def test_verify_rejects_a_state_whose_src_is_not_a_list_of_layers(tmp_path, capsys, suite):
    fixture = _edited_state(tmp_path, lambda data: data.update(src={"0": [0]}))
    code, out, err = run(capsys, "verify", "--suite", suite, "--input", str(fixture))
    assert code == 2
    assert "malformed fixture" in err and "src is not a list of layers" in err and out == ""


def _last_one_cell_listed_twice(data):
    # with its src, tgt and arity, so every index and table still lines up
    for key, k in (("cells", 1), ("src", 0), ("tgt", 0), ("arity", 1)):
        data[key][k].append(data[key][k][-1])


STATE_SUITES = [name for name in SUITE_NAMES if name not in ("globularity", "monoid-laws")]


def test_verify_rejects_a_cell_listed_twice_in_a_layer(tmp_path, capsys):
    """The tables are keyed by cell, so a second listing overwrote the
    first: a state passed 7 of its 8 suites, and a globular set gave one
    cell two targets and passed globularity."""
    fixture = _edited_state(tmp_path, _last_one_cell_listed_twice)
    for suite in STATE_SUITES:
        code, out, err = run(capsys, "verify", "--suite", suite, "--input", str(fixture))
        assert code == 2, suite
        assert "malformed fixture" in err and "lists a cell twice" in err and out == ""
    globset = tmp_path / "globset.json"
    globset.write_text(json.dumps({"dims": 1, "cells": [["x", "y"], ["f", "f"]], "src": [[0, 0]], "tgt": [[1, 0]]}))
    code, out, err = run(capsys, "verify", "--suite", "globularity", "--input", str(globset))
    assert code == 2
    assert "lists a cell twice" in err and out == ""
    # the same atom in two layers is legal
    globset.write_text(json.dumps({"dims": 1, "cells": [["x", "y"], ["x"]], "src": [[0]], "tgt": [[1]]}))
    assert run(capsys, "verify", "--suite", "globularity", "--input", str(globset))[0] == 0


@pytest.mark.parametrize("suite", ["contraction-laws", "all"])
def test_verify_rejects_a_fixture_that_is_json_null(tmp_path, capsys, suite):
    """A parsed ``null`` fails to decode like any other malformed file; the
    suites once read it as no file, built their own structures and passed."""
    fixture = tmp_path / "null.json"
    fixture.write_text("null\n")
    code, out, err = run(capsys, "verify", "--suite", suite, "--input", str(fixture))
    assert code == 2
    assert err.startswith("malformed fixture") and err.count("\n") == 1 and out == ""


def test_verify_all_decodes_and_rebuilds_a_state_once(capsys, monkeypatch):
    """The suites of one run share one ``Fixture``: the state is decoded once
    and its ladder rebuilt from its input cells once, not once per suite."""
    calls = dict.fromkeys(("state_from_json", "free_owc"), 0)
    for name in calls:
        def spy(*args, name=name, original=getattr(verify, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(verify, name, spy)
    code, out, err = run(capsys, "verify", "--suite", "all", "--input", str(FIXTURES / "valid_state.json"))
    assert code == 0, out
    assert calls == {"state_from_json": 1, "free_owc": 1}


def test_verify_rejects_a_fixture_nested_deeper_than_the_parser_goes(tmp_path, capsys):
    fixture = tmp_path / "state.json"
    fixture.write_text("[" * 100000)
    code, out, err = run(capsys, "verify", "--suite", "operad-laws", "--input", str(fixture))
    assert code == 2
    assert "malformed fixture" in err and out == ""


@pytest.mark.parametrize("dim", [2**64, 1.0, True], ids=["2**64", "float", "bool"])
def test_verify_rejects_a_substitution_case_of_a_dimension_it_cannot_have(tmp_path, capsys, dim):
    """A case's dimension is an int no higher than the recursion limit.  A
    degenerate diagram of dimension 2**64 would be looped over dimension by
    dimension, holding a table per dimension until memory runs out; a float
    or a bool is rejected before it can stand for the int it equals."""
    data = json.loads((FIXTURES / "valid_subst_vectors.json").read_text())
    data["cases"][0]["dim"] = dim
    fixture = tmp_path / "cases.json"
    fixture.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--suite", "monoid-laws", "--input", str(fixture))
    assert code == 2
    assert err.startswith("malformed fixture") and out == ""


@pytest.mark.parametrize(
    "field, value",
    [("stage", [9, 9]), ("stage", [1, 2]), ("stage", [True, True]), ("max_dim", True)],
)
def test_verify_rejects_a_stage_or_bounds_the_state_cannot_have(tmp_path, capsys, field, value):
    def edit(data):
        (data if field == "stage" else data["bounds"])[field] = value

    fixture = _edited_state(tmp_path, edit)
    for suite in ("operad-laws", "triangle-identities", "ladder-coherence"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--input", str(fixture))
        assert code == 2, suite
        assert "malformed fixture" in err and out == ""


@pytest.mark.parametrize(
    "name, verdicts, code",
    [
        ("valid_state", {name: "pass" for name in STATE_SUITES}, 0),
        ("corrupt_globset", {"globularity": "FAIL"}, 1),
        ("valid_subst_vectors", {"monoid-laws": "pass"}, 0),
    ],
)
def test_verify_all_on_a_fixture_runs_the_suites_that_read_it(capsys, name, verdicts, code):
    """A state is read by eight suites, substitution cases by monoid-laws and
    a globular set by globularity; one kind's suites never see another."""
    got, out, err = run(capsys, "verify", "--suite", "all", "--input", str(FIXTURES / f"{name}.json"))
    assert got == code and err == ""
    assert [line.split(" (")[0] for line in out.splitlines()] == [f"{s}: {v}" for s, v in verdicts.items()]


# the keys of the formats, so that a built object can pass for a cell, a
# node, a table entry or its provenance
KEYS = (
    "unit", "node", "ctr", "atom", "gen", "dim", "labels", "a", "b", "theta", "cell", "op",
    "result", "provenance", "step", "stratum", "reason", "count", "sample", "cases",
)

# any JSON value, with the ints an index or a dimension can be and floats
# of every kind, NaN and the infinities among them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from([2**31, 2**64, -(2**63)]) | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=6,
)


def _nested(value, depth: int):
    for _ in range(depth):
        value = [value]
    return value


def _hostile(value):
    """A value a hostile or careless writer could put where ``value`` is,
    built from it: a bool, a float, a string or an index out of range for
    an int; an object for a list, or the list cut short or run long; a list
    for an object, or the object less a key; ``value`` nested in up to 300
    lists, as an atom can be; or any JSON value."""
    built = [JSON_VALUES, st.integers(1, 300).map(lambda depth: _nested(value, depth))]
    if type(value) is int:
        built.append(st.sampled_from([True, False, float(value), value + 0.5, str(value), -1 - value, value + 1000, 2**64]))
    elif isinstance(value, list):
        built.append(st.sampled_from([{str(i): v for i, v in enumerate(value)}, value[:-1], value + value[-1:]]))
    elif isinstance(value, dict):
        built.append(st.sampled_from([list(value.values()), *({k: v for k, v in value.items() if k != key} for key in value)]))
    return st.one_of(built)

# per fixture, the suite that decodes it and the number of examples:
# contraction-laws decodes a whole state and checks little more, and 300
# examples reach a non-object provenance, which the decoder must reject
FUZZED = {
    "valid_state": ("contraction-laws", 300),
    "valid_subst_vectors": ("monoid-laws", 60),
    "corrupt_globset": ("globularity", 60),
}


def _paths_by_field(doc) -> list[list[tuple]]:
    """Every path into ``doc``, grouped by the key of the field it is in and
    the number of list indices after that key, so that each field gets an
    even share of the mutations however long its lists are."""
    fields: dict = {}

    def walk(node, path, field, depth):
        if path:
            fields.setdefault((field, depth), []).append(path)
        if isinstance(node, dict):
            for key, child in node.items():
                walk(child, (*path, key), key, 0)
        elif isinstance(node, list):
            for i, child in enumerate(node):
                walk(child, (*path, i), field, depth + 1)

    walk(doc, (), None, 0)
    return list(fields.values())


def _replaced(doc, path, value):
    # a copy of ``doc`` with ``value`` at ``path``; only the containers on
    # the path are copied
    if not path:
        return value
    node = doc.copy()
    node[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return node


def _at_path(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _mutated(draw, doc, fields):
    # every path resolves in ``doc``; replaced deepest first, none is cut
    # off, and each value is built from the one it replaces
    paths = draw(st.lists(st.sampled_from(fields).flatmap(st.sampled_from), min_size=1, max_size=2, unique=True))
    for path in sorted(paths, key=len, reverse=True):
        doc = _replaced(doc, path, draw(_hostile(_at_path(doc, path))))
    return doc


@pytest.mark.parametrize("name", FUZZED)
def test_verify_decodes_a_mutated_fixture_without_a_traceback(tmp_path_factory, name):
    """One or two values anywhere in a fixture replaced by hostile values
    built from them: the suite that decodes it passes, fails or rejects the
    file (exit 2), and raises nothing."""
    suite, examples = FUZZED[name]
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    fixture = tmp_path_factory.mktemp("fuzz") / f"{name}.json"
    argv = ["verify", "--suite", suite, "--input", str(fixture)]

    @settings(max_examples=examples, derandomize=True, deadline=None, database=None)
    @given(_mutated(doc, _paths_by_field(doc)))
    def check(mutated):
        fixture.write_text(json.dumps(mutated))
        assert main(argv) in (0, 1, 2)

    check()
