import json
from pathlib import Path

import pytest
from oracles import find_isomorphism

from groupoid_cohomology.cech import (
    MaximalSimplicialCover,
    ModuleCoefficients,
    NerveSpace,
    cech_cohomology_on_cover,
    single_set_cover,
)
from groupoid_cohomology.classify import are_equivalent, ext_classes
from groupoid_cohomology.cohomology import cohomology
from groupoid_cohomology.cli import (
    DocumentError,
    extension_from_dict,
    main,
    parse,
    results_to_json,
    run,
)
from groupoid_cohomology.groupoid import pair_groupoid

FROZEN_DOCUMENTS = (Path(__file__).resolve().parent.parent / "perfbench" / "expected"
                    / "documents.json")

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


C2 = "groupoid: cyclic 2\n"
FIBERS = C2 + "module: fibers\n"
TWO_OBJECTS = """\
groupoid: table
object: x
object: y
arrow: e x x
arrow: g x x
arrow: u y y
compose: e e e
compose: e g g
compose: g e g
compose: g g e
compose: u u u
unit: x e
unit: y u
"""
BAD_INT = "invalid literal for int() with base 10: 'x'"

# Every diagnostic of `parse` and its groupoid builders, with its exact line.
DIAGNOSTICS = [
    ("nonsense", "line 1: expected 'key: value', got 'nonsense'"),
    (C2 + "colour: red", "line 2: unknown field 'colour'"),
    # builders
    ("groupoid: cyclic", "line 1: bad groupoid builder 'cyclic': list index out of range"),
    ("groupoid: cyclic x", f"line 1: bad groupoid builder 'cyclic x': {BAD_INT}"),
    ("groupoid: cyclic 0", "line 1: bad groupoid builder 'cyclic 0': order must be >= 1"),
    ("groupoid: pair 0", "line 1: bad groupoid builder 'pair 0': need at least one object"),
    ("groupoid: unit 0", "line 1: bad groupoid builder 'unit 0': need at least one object"),
    ("groupoid: torus 2", "line 1: unknown groupoid builder 'torus'"),
    ("groupoid:", "line 1: unknown groupoid builder ''"),
    ("groupoid: action 2 at 2 perm 1 0", "line 1: expected: action N on M perm ..."),
    ("groupoid: action 2 on",
     "line 1: bad groupoid builder 'action 2 on': list index out of range"),
    ("groupoid: action 2 on 2 perm 0 0", "line 1: perm must be a permutation of 0..M-1"),
    ("groupoid: action 2 on 2 perm 1 x",
     f"line 1: bad groupoid builder 'action 2 on 2 perm 1 x': {BAD_INT}"),
    ("groupoid: action 2 on 3 perm 1 2 0",
     "line 1: bad groupoid builder 'action 2 on 3 perm 1 2 0': axiom (gh)z = g(hz) violated"),
    ("groupoid: cover cyclic 2",
     "line 1: bad groupoid builder 'cover cyclic 2': 'sets' is not in list"),
    ("groupoid: cover cyclic 2 sets 0|x", "line 1: bad object id in cover spec 'x'"),
    ("groupoid: cover cyclic 2 sets 0|1", "line 1: unknown object id 1"),
    ("groupoid: cover cyclic 2 sets |", "line 1: bad groupoid builder 'cover cyclic 2 sets |': "
     "family does not cover the objects; missing [0]"),
    ("groupoid: cover torus 2 sets 0", "line 1: unknown groupoid builder 'torus'"),
    # the table directives: outside a table, and with the wrong number of words
    (C2 + "object: x", "line 2: object: outside a groupoid table"),
    (C2 + "arrow: f x x", "line 2: arrow: outside a groupoid table"),
    (C2 + "compose: f f f", "line 2: compose: outside a groupoid table"),
    (C2 + "unit: x f", "line 2: unit: outside a groupoid table"),
    ("groupoid: table\nobject: x\narrow: f x x\ncompose: f f f\nunit: x f\nmodule: constant 2\n"
     "object: y", "line 7: object: outside a groupoid table"),
    ("groupoid: table\nobject: x\narrow: f x", "line 3: expected: arrow: NAME RANGE SOURCE"),
    ("groupoid: table\nobject: x\ncompose: f f", "line 3: expected: compose: F G H"),
    ("groupoid: table\nobject: x\nunit: x f f", "line 3: expected: unit: OBJECT ARROW"),
    # names in the table, checked arrows first, then compose, then unit
    ("groupoid: table\nobject: x\narrow: f y x\nunit: x f\nmodule: constant 2",
     "line 3: arrow 'f' names unknown object 'y'"),
    ("groupoid: table\nobject: x\narrow: f x y\nunit: x f\nmodule: constant 2",
     "line 3: arrow 'f' names unknown object 'y'"),
    ("groupoid: table\nobject: x\narrow: f y z\narrow: g z x\nunit: x f\nmodule: constant 2",
     "line 3: arrow 'f' names unknown object 'y'"),
    ("groupoid: table\nobject: x\narrow: f x x\ncompose: f f k\nunit: q f\ntask: validate",
     "line 4: compose names unknown arrow 'k'"),
    ("groupoid: table\nobject: x\narrow: f x x\ncompose: k f f\ncompose: f j f\ntask: validate",
     "line 4: compose names unknown arrow 'k'"),
    ("groupoid: table\nobject: x\narrow: f x x\ncompose: f k f\ntask: validate",
     "line 4: compose names unknown arrow 'k'"),
    ("groupoid: table\nobject: x\narrow: f x x\ncompose: f f f\nunit: q k\ntask: validate",
     "line 5: unit names unknown object 'q'"),
    ("groupoid: table\nobject: x\narrow: f x x\ncompose: f f f\nunit: x k\ntask: validate",
     "line 5: unit names unknown arrow 'k'"),
    # units and inverses, reported where the table ends
    ("groupoid: table\nobject: x\nobject: y\narrow: f x x\ncompose: f f f\nunit: x f\n"
     "task: validate", "line 7: missing unit for objects ['y']"),
    ("groupoid: table\nobject: x\nobject: y\nobject: z\narrow: f x x\ncompose: f f f\nunit: x f",
     "line 7: missing unit for objects ['y', 'z']"),
    ("groupoid: table\nobject: x\narrow: f x x", "line 3: missing unit for objects ['x']"),
    ("groupoid: table\nobject: x\narrow: e x x\narrow: g x x\ncompose: e e e\nunit: x e\n"
     "module: constant 2", "line 7: some arrow has no inverse in the table"),
    # no groupoid, or a module or task before it
    ("", "line 1: document declares no groupoid"),
    ("# just a comment\n\n", "line 2: document declares no groupoid"),
    ("module: constant 2", "line 1: no groupoid declared yet"),
    ("task: validate", "line 1: no groupoid declared yet"),
    # modules
    (C2 + "module: free", "line 2: unknown module spec 'free'"),
    (C2 + "module: constant x", f"line 2: bad fiber orders 'x': {BAD_INT}"),
    (C2 + "module: constant -2", "line 2: bad fiber orders '-2': orders must be nonnegative"),
    (C2 + "fiber: 0 2", "line 2: fiber: outside 'module: fibers'"),
    (C2 + "action: 1 [[1]]", "line 2: action: outside 'module: fibers'"),
    (C2 + "module: constant 2\nfiber: 0 2", "line 3: fiber: outside 'module: fibers'"),
    (FIBERS + "fiber: 0 x", f"line 3: bad fiber orders 'x': {BAD_INT}"),
    (FIBERS + "fiber: 0 3\naction: 1 [[1.5]]",
     "line 4: bad action matrix: entries must be JSON integers"),
    (FIBERS + "fiber: 0 3\naction: 1 [1]", "line 4: bad action matrix: 'int' object is not iterable"),
    (FIBERS + "fiber: 0 3\naction: 1 [[1],[1,2]]", "line 4: bad action matrix: expected 2x1 entries"),
    (FIBERS + "fiber: 0 3\naction: 1",
     "line 4: bad action matrix: Expecting value: line 1 column 1 (char 0)"),
    # fiber and action names, every fiber before any action
    (FIBERS + "fiber: q 3", "line 3: fiber names unknown object 'q'"),
    (FIBERS + "fiber: 1 3", "line 3: fiber names unknown object '1'"),
    (FIBERS + "fiber: 0 3\naction: k [[1]]", "line 4: action names unknown arrow 'k'"),
    (FIBERS + "fiber: 0 3\naction: 2 [[1]]", "line 4: action names unknown arrow '2'"),
    # a digit that int() rejects is a name, not an id
    (FIBERS + "fiber: \u00b2 3", "line 3: fiber names unknown object '\u00b2'"),
    (FIBERS + "fiber: 0 3\naction: \u00b2 [[1]]", "line 4: action names unknown arrow '\u00b2'"),
    (FIBERS + "fiber: 0 3\naction: k [[1]]\nfiber: q 3", "line 5: fiber names unknown object 'q'"),
    (FIBERS + "fiber: 0 3\naction: 1 [[1, 0]]",
     "line 4: action matrix shape: matrix is 1x2, expected 1x1"),
    (FIBERS + "fiber: 0 3\naction: g [[1],[0]]",
     "line 4: action matrix shape: matrix is 2x1, expected 1x1"),
    (FIBERS + "fiber: 0 3\naction: 1 []", "line 4: action matrix shape: matrix is 0x0, expected 1x1"),
    (TWO_OBJECTS + "module: fibers\nfiber: x 5\nfiber: y 2,2\n"
     "action: u [[1, 0], [0, 1]]\naction: e [[1,2]]",
     "line 18: action matrix shape: matrix is 1x2, expected 1x1"),
    # every object needs a fiber, and arrows between unequal fibers an
    # action, both reported at the 'module: fibers' line
    (FIBERS + "task: validate", "line 2: need a fiber for every object"),
    (TWO_OBJECTS + "module: fibers\nfiber: x 5\ntask: validate",
     "line 14: need a fiber for every object"),
    ("groupoid: pair 2\nmodule: fibers\nfiber: 0 2\nfiber: 1 3",
     "line 2: missing action for arrow '(0<-1)'"),
    # a name with a space can never be looked up
    ("groupoid: table\nobject: a b", "line 2: expected: object: NAME"),
    ("groupoid: table\nobject:", "line 2: expected: object: NAME"),
    # a repeated declaration is an error at the line of the repeat
    (C2 + "groupoid: cyclic 3", "line 2: repeated groupoid, first at line 1"),
    (C2 + "groupoid: table\nobject: x", "line 2: repeated groupoid, first at line 1"),
    (C2 + "module: constant 2\nmodule: constant 3", "line 3: repeated module, first at line 2"),
    ("groupoid: table\nobject: x\nobject: x", "line 3: repeated object 'x', first at line 2"),
    ("groupoid: table\nobject: x\narrow: f x x\narrow: f x x",
     "line 4: repeated arrow 'f', first at line 3"),
    (TWO_OBJECTS + "compose: g g g", "line 14: repeated compose 'g' 'g', first at line 10"),
    (TWO_OBJECTS + "unit: x g", "line 14: repeated unit 'x', first at line 12"),
    (FIBERS + "fiber: 0 3\nfiber: * 3", "line 4: repeated fiber '*', first at line 3"),
    (FIBERS + "fiber: 0 3\naction: g [[2]]\naction: 1 [[2]]",
     "line 5: repeated action 'g', first at line 4"),
    # a builder takes its words and no more
    ("groupoid: cyclic 2 3", "line 1: unexpected words after 'cyclic 2': '3'"),
    ("groupoid: cover cyclic 2 3 sets 0", "line 1: unexpected words after 'cyclic 2': '3'"),
    ("# builders\ngroupoid: unit 1 x y", "line 2: unexpected words after 'unit 1': 'x y'"),
]


@pytest.mark.parametrize("text, message", DIAGNOSTICS)
def test_parse_diagnostic(text, message):
    with pytest.raises(DocumentError) as info:
        parse(text)
    assert str(info.value) == message


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


def test_frozen_documents_replay_byte_identical():
    """Every frozen benchmark document gives the same --json bytes."""
    outputs = json.loads(FROZEN_DOCUMENTS.read_text(encoding="utf-8"))["outputs"]
    assert len(outputs) == 81
    for text, frozen in outputs.items():
        assert results_to_json(run(parse(text))[0]) == frozen, text


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
        ("constant 2", "validate junk"),
        ("constant 2", "ext junk"),
        ("constant 2", "baer junk"),
        ("constant 2", "strict-trivial junk"),
        ("constant 2", "cohomology 0..1 junk"),
        ("constant 2", "cech maximal 1 junk"),
        ("constant 2", "homotopy-check 1 2 junk"),
    ]:
        capsys.readouterr()
        path.write_text(f"groupoid: cyclic 2\nmodule: {module}\ntask: {task}\n")
        assert main(["run", str(path)]) == 2, task
        assert capsys.readouterr().err.startswith("task error: line 3: "), task


def test_trailing_builder_words_exit_2(tmp_path, capsys):
    path = tmp_path / "doc.gpd"
    for builder in ("cyclic 2 3", "cover cyclic 2 3 sets 0"):
        path.write_text(f"groupoid: {builder}\nmodule: constant 2\ntask: validate\n")
        assert main(["run", str(path)]) == 2, builder
        assert "line 1: unexpected words after 'cyclic 2': '3'" in capsys.readouterr().err


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


def test_missing_product_is_reported_not_raised(tmp_path, capsys):
    # the cyclic group of order 3 with the product a a = b left out
    path = tmp_path / "doc.gpd"
    path.write_text("groupoid: table\nobject: x\narrow: e x x\narrow: a x x\narrow: b x x\n"
                    + "".join(f"compose: {line}\n" for line in (
                        "e e e", "e a a", "e b b", "a e a", "a b e", "b e b", "b a e", "b b a"))
                    + "unit: x e\ntask: validate\n")
    assert main(["run", str(path)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] validate" in out
    assert "  comp defined on (1,1) iff composable violated\n" in out


def test_budget_reaches_cohomology_and_morita_tasks(tmp_path, capsys):
    path = tmp_path / "doc.gpd"
    path.write_text("groupoid: cyclic 3\nmodule: constant 3\n"
                    "task: cohomology 0..3\ntask: morita 0|0\n")
    assert main(["run", str(path)]) == 0
    # the task reads the normalized complex: level 2 has 2 * 2 = 4 nondegenerate
    # tuples (under the cap), level 3 has 8
    assert main(["--budget", "5", "run", str(path)]) == 3
    assert "budget exceeded: nerve level 3 has 8 nondegenerate tuples" in capsys.readouterr().out
    # the 12-arrow cover groupoid of C3 has 12 * 6 * 6 tuples at level 3
    path.write_text("groupoid: cyclic 3\nmodule: constant 3\ntask: morita 0|0\n")
    assert main(["--budget", "400", "run", str(path)]) == 3
    assert "cover groupoid nerve has 432 tuples at level 3" in capsys.readouterr().out


def test_task_error_keeps_the_finished_tasks(tmp_path, capsys):
    """A task error after finished tasks prints and writes them, as a
    budget overrun does, then reports the error with exit 2."""
    path, json_path = tmp_path / "doc.gpd", tmp_path / "out.json"
    path.write_text("groupoid: cyclic 2\nmodule: constant 2\ntask: validate\n"
                    "task: cech maximal 5\n")
    assert main(["--json", str(json_path), "run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out.startswith("[ok] validate\n")
    assert err == "task error: line 4: degree 5 above --max-degree\n"
    payload = json.loads(json_path.read_text())
    assert [(t["task"], t["ok"]) for t in payload["tasks"]] == [("validate", True)]
    with pytest.raises(DocumentError) as info:
        run(parse(path.read_text()))
    assert [r.name for r in info.value.results] == ["validate"]


CECH_HEADERS = [
    "groupoid: cyclic 3\nmodule: constant 3",
    "groupoid: pair 2\nmodule: constant 2",
    "groupoid: unit 2\nmodule: constant 2",
    "groupoid: action 2 on 2 perm 1 0\nmodule: constant 2",
    "groupoid: cover cyclic 2 sets 0|0\nmodule: constant 2",
    TABLE_DOC.replace("task: validate\n", "").strip(),
    "groupoid: cyclic 2\nmodule: fibers\nfiber: 0 3\naction: 1 [[2]]",
]


@pytest.mark.parametrize("style", ["maximal", "single"])
@pytest.mark.parametrize("header", CECH_HEADERS, ids=lambda h: h.split("\n")[0])
def test_cech_task_rows_match_the_per_degree_calls(header, style):
    """The cech task reads every degree off one sigma family: its rows at
    degrees 0-3 are those of cech_cohomology_on_cover and cohomology
    called degree by degree."""
    doc = parse(f"{header}\ntask: cech {style} 3\n")
    (result,), code = run(doc)
    assert code == 0 and result.ok
    G, A = doc.groupoid, doc.module
    space = NerveSpace(G)
    cover = MaximalSimplicialCover(space) if style == "maximal" else single_set_cover(space, 4)
    for n in range(4):
        for side, factors in [
                ("cech", cech_cohomology_on_cover(space, ModuleCoefficients(A), cover, n)),
                ("groupoid", cohomology(G, A, n))]:
            assert result.data["rows"][str(n)][side] == {"torsion": list(factors.torsion),
                                                         "free_rank": factors.free_rank}


@pytest.mark.parametrize("task, budget, message", [
    ("cyclic 3\nmodule: constant 3\ntask: cech maximal 3", 2, "sigma level 1 has 3 cells"),
    ("cyclic 3\nmodule: constant 3\ntask: cech maximal 3", 30, "nerve level 4 has 81 tuples"),
    ("cyclic 3\nmodule: constant 3\ntask: cech single 3", 12, "nerve level 3 has 27 tuples"),
    ("pair 3\nmodule: constant 2\ntask: cech maximal 2", 1, "sigma level 0 has 3 cells"),
    ("pair 3\nmodule: constant 2\ntask: cech maximal 2", 5, "sigma level 1 has 9 cells"),
    ("pair 3\nmodule: constant 2\ntask: cech maximal 2", 20, "nerve level 2 has 27 tuples"),
])
def test_cech_task_budget_overrun_names_its_stage_and_level(tmp_path, capsys, task, budget,
                                                            message):
    """The one-family cech task meets the first overrun the degree-by-degree
    task met: the same stage, level and estimate, with exit 3."""
    path = tmp_path / "doc.gpd"
    path.write_text(f"groupoid: {task}\n")
    assert main(["--budget", str(budget), "run", str(path)]) == 3
    assert f"  budget exceeded: {message}\n" in capsys.readouterr().out


def test_budget_exit_code(tmp_path):
    path = tmp_path / "doc.gpd"
    path.write_text("groupoid: cyclic 6\nmodule: constant 2\ntask: morita 0|0|0\n")
    code = main(["run", str(path)])
    assert code == 3


@pytest.mark.parametrize("option, value, message, task, floor, floor_code", [
    pytest.param("--budget", "0", "--budget must be at least 1", "cech maximal 2", "1", 3,
                 id="0"),
    pytest.param("--budget", "-1", "--budget must be at least 1", "cech maximal 2", "1", 3,
                 id="-1"),
    # below 0, morita had no degree to compare and cech ran zero rows
    pytest.param("--max-degree", "-1", "--max-degree must be at least 0", "morita 0", "0", 0,
                 id="max-degree--1"),
])
def test_budget_below_one_is_a_usage_error(tmp_path, capsys, option, value, message,
                                           task, floor, floor_code):
    path = tmp_path / "doc.gpd"
    path.write_text(f"groupoid: cyclic 2\nmodule: constant 2\ntask: {task}\n")
    with pytest.raises(SystemExit) as info:
        main([option, value, "run", str(path)])
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert main([option, floor, "run", str(path)]) == floor_code


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


def _c3_table(products):
    return ("groupoid: table\nobject: x\narrow: e x x\narrow: a x x\narrow: b x x\n"
            + "".join(f"compose: {line}\n" for line in products)
            + "unit: x e\nmodule: constant 3\n")


C3_PRODUCTS = ("e e e", "e a a", "e b b", "a e a", "a b e", "b e b", "b a e", "b b a")


@pytest.mark.parametrize("products, failure", [
    # a a = b left out: the nerve read the missing product
    (C3_PRODUCTS, "comp defined on (1,1) iff composable violated"),
    # a a = a in its place: elimination met an image outside the kernel
    (C3_PRODUCTS + ("a a a",), "associativity fails at (1,1,2)"),
])
@pytest.mark.parametrize("task", ["cohomology 0..2", "ext"])
def test_broken_table_is_a_task_error(tmp_path, capsys, products, failure, task):
    path = tmp_path / "doc.gpd"
    path.write_text(_c3_table(products) + f"task: {task}\n")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    line = 8 + len(products)  # the task line
    assert f"task error: line {line}: the document's tables fail validation: {failure}" in err
    # a lone validate task still reports every failure, with exit 1
    path.write_text(_c3_table(products) + "task: validate\n")
    assert main(["run", str(path)]) == 1
    assert "[FAIL] validate" in capsys.readouterr().out


def test_valid_tables_pay_one_validation():
    doc = parse(_c3_table(C3_PRODUCTS + ("a a b",)) + "task: cohomology 0..2\ntask: ext\n")
    assert doc.explicit and not parse(BUILDER_DOC).explicit
    results, code = run(doc)
    assert code == 0 and [r.name for r in results] == ["cohomology", "ext"]
