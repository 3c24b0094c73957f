import json

import pytest
from oracles import find_isomorphism

from groupoid_cohomology.classify import are_equivalent, ext_classes
from groupoid_cohomology.cli import (
    DocumentError,
    extension_from_dict,
    main,
    parse,
    results_to_json,
    run,
)
from groupoid_cohomology.groupoid import pair_groupoid

BUILDER_DOC = """\
groupoid: cyclic 2
module: constant 2
task: validate
task: cohomology 0..2
"""

TABLE_DOC = """\
groupoid: table
object: a
object: b
arrow: paa a a
arrow: pab a b
arrow: pba b a
arrow: pbb b b
compose: paa paa paa
compose: paa pab pab
compose: pab pba paa
compose: pab pbb pab
compose: pba paa pba
compose: pba pab pbb
compose: pbb pba pba
compose: pbb pbb pbb
unit: a paa
unit: b pbb
module: constant 2
task: validate
"""


def test_parse_builder_document():
    doc = parse(BUILDER_DOC)
    assert doc.groupoid.n_arrows == 2
    assert [t[0] for t in doc.tasks] == ["validate", "cohomology 0..2"]


def test_parse_table_is_pair_groupoid():
    doc = parse(TABLE_DOC)
    assert find_isomorphism(doc.groupoid, pair_groupoid(2)) is not None


def test_parse_diagnostics_carry_line_numbers():
    with pytest.raises(DocumentError, match="line 3"):
        parse("groupoid: cyclic 2\nmodule: constant 2\nnonsense: 1")
    # action matrices hold JSON integers, not floats, booleans or strings
    for matrix in ("[[1.5]]", "[[true]]", '[["1"]]', "[1]", "5"):
        with pytest.raises(DocumentError, match="line 4: bad action matrix"):
            parse(f"groupoid: cyclic 2\nmodule: fibers\nfiber: 0 3\naction: 1 {matrix}")
    with pytest.raises(DocumentError, match="unknown object"):
        parse("groupoid: table\nobject: x\narrow: f x y\nunit: x f\nmodule: constant 2")
    with pytest.raises(DocumentError, match="groupoid"):
        parse("module: constant 2")


def test_run_golden_lines():
    results, code = run(parse(BUILDER_DOC))
    assert code == 0
    coh = [r for r in results if r.name == "cohomology"][0]
    assert coh.lines == ["H^0=Z/2 H^1=Z/2 H^2=Z/2"]


def test_run_c3_integer_coefficients():
    doc = parse("groupoid: cyclic 3\nmodule: constant 0\ntask: cohomology 2..2")
    results, code = run(doc)
    assert code == 0
    assert results[0].lines == ["H^2=Z/3"]


def test_ext_task_classes():
    doc = parse("groupoid: cyclic 2\nmodule: constant 2\ntask: ext")
    results, code = run(doc)
    assert code == 0
    data = results[0].data
    assert len(data["classes"]) == 2
    splits = sorted(c["split"] for c in data["classes"])
    assert splits == [False, True]


def test_extension_round_trip_through_json():
    doc = parse("groupoid: cyclic 2\nmodule: constant 2\ntask: ext")
    results, _ = run(doc)
    cls = ext_classes(doc.groupoid, doc.module)
    for rec, c in zip(results[0].data["classes"], cls.classes):
        blob = json.loads(json.dumps(rec["extension"]))
        rebuilt = extension_from_dict(blob, doc.groupoid, doc.module)
        assert are_equivalent(rebuilt, c.extension) is not None


def test_structured_output_deterministic():
    doc = parse(BUILDER_DOC)
    out1 = results_to_json(run(doc)[0])
    out2 = results_to_json(run(parse(BUILDER_DOC))[0])
    assert out1 == out2


def test_assertion_tasks_and_exit_codes(tmp_path):
    path = tmp_path / "doc.gpd"
    path.write_text(BUILDER_DOC + "task: morita 0|0\ntask: cech maximal 1\n")
    json_path = tmp_path / "out.json"
    code = main(["--json", str(json_path), "run", str(path)])
    assert code == 0
    payload = json.loads(json_path.read_text())
    assert all(t["ok"] for t in payload["tasks"])


def test_usage_exit_code(tmp_path, capsys):
    path = tmp_path / "doc.gpd"
    path.write_text("groupoid: cyclic 2\nmodule: constant 2\ntask: zorp\n")
    assert main(["run", str(path)]) == 2
    assert main(["run", str(tmp_path / "missing.gpd")]) == 2
    # bad task arguments, and input the library rejects, are usage errors
    for module, task in [
        ("constant 2", "cech"),
        ("constant 2", "cech maximal x"),
        ("constant 2", "cech maximal -1"),
        ("constant 2", "cohomology -1..1"),
        ("constant 2", "cohomology a..b"),
        ("constant 2", "cohomology 2..1"),
        ("constant 2", "homotopy-check x"),
        ("constant 2", "homotopy-check 1 0"),
        ("constant 2", "morita"),
        ("constant 0", "ext"),
        ("constant 0", "baer"),
        ("constant 0", "strict-trivial"),
    ]:
        capsys.readouterr()
        path.write_text(f"groupoid: cyclic 2\nmodule: {module}\ntask: {task}\n")
        assert main(["run", str(path)]) == 2, task
        assert capsys.readouterr().err.startswith("task error: line 3: "), task


def test_failing_validation_exit_code(tmp_path):
    # parses fine (inverses exist combinatorially) but the declared unit is wrong
    path = tmp_path / "doc.gpd"
    path.write_text("""\
groupoid: table
object: x
arrow: e x x
arrow: a x x
compose: e e e
compose: e a a
compose: a e a
compose: a a e
unit: x a
module: constant 2
task: validate
""")
    assert main(["run", str(path)]) == 1


def test_budget_exit_code(tmp_path):
    path = tmp_path / "doc.gpd"
    path.write_text("groupoid: cyclic 6\nmodule: constant 2\ntask: morita 0|0|0\n")
    code = main(["run", str(path)])
    assert code == 3


def test_homotopy_check_task():
    doc = parse("groupoid: cyclic 2\nmodule: constant 2\ntask: homotopy-check 3 6")
    results, code = run(doc)
    assert code == 0 and results[0].data["count"] == 6


def test_verb_shortcuts(tmp_path):
    path = tmp_path / "doc.gpd"
    path.write_text(BUILDER_DOC)
    assert main(["validate", str(path)]) == 0
    assert main(["--max-degree", "2", "cohomology", str(path)]) == 0
    assert main(["cech-check", str(path)]) == 0
    assert main(["morita-check", str(path)]) == 0
    assert main(["homotopy-check", str(path), "--count", "4"]) == 0


def test_action_and_cover_builders():
    from groupoid_cohomology.groupoid import cover_groupoid, cyclic_group
    doc = parse("groupoid: action 2 on 2 perm 1 0\nmodule: constant 2\ntask: validate")
    assert doc.groupoid.n_arrows == 4
    assert find_isomorphism(doc.groupoid, pair_groupoid(2)) is not None
    doc2 = parse("groupoid: cover cyclic 2 sets 0|0\nmodule: constant 3\ntask: validate")
    expect = cover_groupoid(cyclic_group(2), [{0}, {0}]).groupoid
    assert doc2.groupoid.n_arrows == expect.n_arrows == 8
    assert run(doc2)[1] == 0


def test_fibers_module_document():
    doc = parse("""\
groupoid: cyclic 2
module: fibers
fiber: 0 3
action: 1 [[-1]]
task: cohomology 0..2
""")
    results, code = run(doc)
    assert code == 0
    assert results[0].lines == ["H^0=0 H^1=0 H^2=0"]
