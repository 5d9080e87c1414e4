"""Spec files and the command line: parsing, determinism, exit codes."""

import argparse
import contextlib
import copy
import json
import os
import shutil
import signal
import subprocess
import sys
from functools import reduce
from io import StringIO
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nodalcover
from nodalcover import cli as cli_module, covering, descent, groups
from nodalcover import io as spec_io
from nodalcover.cli import main
from nodalcover.covering import certify_free_action
from nodalcover.curves import NodalCurve, betti_rank, pi1_presentation
from nodalcover.descent import MeromorphicCocycle
from nodalcover.errors import SpecParseError
from nodalcover.field import MAX_LITERAL_DEGREE, MatrixK
from nodalcover.groups import FiniteGroup, FPSignature, cyclic_group
from nodalcover.reps import ContinuousRep, FiniteQuotientRep
from nodalcover.specialize import sp_pipeline

from helpers import F3, certify_free_oracle, count_curve_builds
from test_reports import CASES as REPORT_CASES

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
# The directory holding the nodalcover package this process imported.  A CLI
# subprocess runs from DATA, where a relative PYTHONPATH such as "src" no
# longer resolves, so the child is pointed at this directory explicitly.
PACKAGE_ROOT = Path(nodalcover.__file__).resolve().parents[1]


# -- loading ---------------------------------------------------------------------

def test_load_group_builtin_and_table():
    G = spec_io.load_group({"builtin": "cyclic", "n": 4})
    assert G.order == 4
    H = spec_io.load_group({"table": [[0, 1], [1, 0]], "labels": ["e", "s"],
                            "name": "T"})
    assert H.name == "T" and H.label_index("s") == 1
    with pytest.raises(SpecParseError):
        spec_io.load_group({"builtin": "simple", "n": 7})
    with pytest.raises(SpecParseError):
        spec_io.load_group({"table": [[0, 0], [0, 0]]})


def test_load_group_largest_orders_within_the_budget():
    top = spec_io.MAX_GROUP_ORDER
    assert spec_io.load_group({"builtin": "cyclic", "n": top}).order == top
    assert spec_io.load_group({"builtin": "dihedral", "n": top // 2}).order == top
    assert spec_io.load_group({"builtin": "symmetric", "n": 5}).order == 120


# Group specs that are valid JSON but not valid groups.  Sizes within the
# order budget stay small, because S_n for n >= 5 makes each example slow;
# sizes past the budget must be refused before any table is built.
BUILTIN_KINDS = ["cyclic", "dihedral", "symmetric", "trivial", "simple"]
GROUP_KEYS = ["builtin", "n", "table", "labels", "name", "generators", "order"]
json_leaves = (st.none() | st.booleans() | st.integers(-4, 4)
               | st.floats(-4, 4, allow_nan=False) | st.sampled_from(BUILTIN_KINDS)
               | st.text(max_size=3))
json_values = st.recursive(
    json_leaves,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.sampled_from(GROUP_KEYS) | st.text(max_size=3),
                                    kids, max_size=4)),
    max_leaves=20)
builtin_specs = st.one_of(
    st.fixed_dictionaries({"builtin": st.sampled_from(["cyclic", "dihedral", "trivial"]),
                           "n": st.integers(-12, 12) | json_leaves
                           | st.integers(spec_io.MAX_GROUP_ORDER + 1, 10 ** 18)}),
    st.fixed_dictionaries({"builtin": st.just("symmetric"),
                           "n": st.integers(-12, 4) | json_leaves | st.integers(6, 10 ** 18)}))
table_specs = st.fixed_dictionaries(
    {"table": st.lists(st.lists(st.integers(-1, 4) | json_leaves, max_size=4), max_size=4)},
    optional={key: json_values for key in ("labels", "name", "generators", "order")})
# Random tables are almost never groups, so also start from real group tables
# and disguise one index or the order as a float, a string or a boolean.
GROUP_TABLES = [[[0]], [[0, 1], [1, 0]], [[(a + b) % 3 for b in range(3)] for a in range(3)]]


def disguises(x):
    return st.sampled_from([x, float(x), x + 0.5, str(x), x == 1])


@st.composite
def group_table_specs(draw):
    table = [list(row) for row in draw(st.sampled_from(GROUP_TABLES))]
    m = len(table)
    i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    table[i][j] = draw(disguises(table[i][j]))
    return draw(st.fixed_dictionaries({"table": st.just(table)}, optional={
        "order": disguises(m) | json_leaves,
        "generators": st.lists(st.integers(0, m - 1).flatmap(disguises), max_size=2),
        "name": st.text(max_size=3) | json_leaves}))


@st.composite
def labelled_table_specs(draw):
    table = draw(st.sampled_from(GROUP_TABLES))
    m = len(table)
    labels = draw(st.lists(st.text(max_size=2) | json_leaves, min_size=m, max_size=m)
                  | st.text(min_size=m, max_size=m))
    return {"table": table, "labels": labels}


@settings(max_examples=200, deadline=None)
@given(json_values | builtin_specs | table_specs | group_table_specs()
       | labelled_table_specs())
def test_load_group_fuzz_gives_group_or_spec_error(tmp_path_factory, spec):
    # loaded from a file, as the command line does, so a JSON string is a value
    path = tmp_path_factory.getbasetemp() / "fuzzed_group.json"
    path.write_text(json.dumps(spec))
    try:
        G = spec_io.load_group(path)
    except SpecParseError:
        return
    assert isinstance(G, FiniteGroup) and G.order == len(G.table)
    if "builtin" not in spec:
        # a table spec loads only when every index is a JSON integer
        def is_int(x):
            return type(x) is int
        assert all(is_int(x) for row in spec["table"] for x in row)
        assert is_int(spec.get("order", 0))
        assert all(is_int(g) for g in spec.get("generators") or ())
        assert G.name == spec.get("name", "G")
        labels = spec.get("labels")
        assert labels is None or list(G.labels) == labels


# Rep and quotient-rep specs: the demo files with one field, at any depth,
# dropped or replaced by another JSON value or a disguised integer.
FUZZED_SPECS = {"rep": json.loads((DATA / "rank2_rep.json").read_text()),
                "fq": json.loads((DATA / "s3_2dim.json").read_text())}


def _field_paths(obj, path=()):
    if path:
        yield path
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _field_paths(value, path + (key,))


@st.composite
def mutated_specs(draw, kind):
    spec = copy.deepcopy(FUZZED_SPECS[kind])
    path = draw(st.sampled_from(list(_field_paths(spec))))
    holder = reduce(getitem, path[:-1], spec)
    old = holder[path[-1]]
    if isinstance(holder, dict) and draw(st.booleans()):
        del holder[path[-1]]
    elif type(old) is int:
        holder[path[-1]] = draw(disguises(old) | json_values)
    elif type(old) is str and old.isdigit():
        # a matrix entry given as a JSON number or boolean
        holder[path[-1]] = draw(disguises(int(old)) | json_values)
    else:
        holder[path[-1]] = draw(json_values)
    return kind, spec


def _spec_matrices(kind, spec):
    if kind == "fq":
        return spec.get("hom") or spec["hom_gen_images"]
    factors = spec["factors"]
    return [*spec.get("z_images", ()),
            *(m for fac in factors for m in fac.get("images") or fac["gen_images"])]


@settings(max_examples=200, deadline=None)
@given(mutated_specs("rep") | mutated_specs("fq"))
def test_load_rep_and_fq_fuzz_give_spec_or_spec_error(case):
    kind, spec = case
    try:
        if kind == "rep":
            loaded = spec_io.load_rep(spec, DATA)
        else:
            loaded = spec_io.load_fq(spec, spec_io.load_curve(DATA / "nodal_cubic.json"))
    except SpecParseError:
        return
    assert isinstance(loaded, ContinuousRep if kind == "rep" else FiniteQuotientRep)
    # a spec loads only when its integer fields are JSON integers
    ints = [spec["p"], spec["rank"]]
    if kind == "fq":
        ints += [*spec.get("z_to", ()), *(x for m in spec["factor_to"] for x in m)]
    assert all(type(x) is int for x in ints)
    # ... its matrix entries are JSON strings, and each matrix has the declared rank
    rank = spec["rank"]
    for m in _spec_matrices(kind, spec):
        assert len(m) == rank and all(len(row) == rank for row in m)
        assert all(type(e) is str for row in m for e in row)
    assert loaded.rank == rank


# Curve specs: the demo curves with one field, at any depth, dropped or
# replaced by another JSON value.
FUZZED_CURVES = [json.loads((DATA / name).read_text())
                 for name in ("nodal_cubic.json", "cycle3.json")]
CURVE_NAMES = ["C1", "C2", "C3", "a", "b", "n0", "x0"]
curve_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats(-2, 2, allow_nan=False)
    | st.sampled_from(CURVE_NAMES) | st.text(max_size=2),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.sampled_from(["id", "branches", "ends", "components",
                                                     "nodes"]), kids, max_size=3)),
    max_leaves=10)


@st.composite
def mutated_curves(draw):
    spec = copy.deepcopy(draw(st.sampled_from(FUZZED_CURVES)))
    path = draw(st.sampled_from(list(_field_paths(spec))))
    holder = reduce(getitem, path[:-1], spec)
    if isinstance(holder, dict) and draw(st.booleans()):
        del holder[path[-1]]
    else:
        holder[path[-1]] = draw(curve_values)
    return spec


@settings(max_examples=300, deadline=None)
@given(mutated_curves())
def test_load_curve_fuzz_gives_curve_or_spec_error(tmp_path_factory, spec):
    path = tmp_path_factory.getbasetemp() / "fuzzed_curve.json"
    path.write_text(json.dumps(spec))
    try:
        curve = spec_io.load_curve(path)
    except SpecParseError:
        return
    assert isinstance(curve, NodalCurve)
    # a curve loads only when its names are JSON strings and it has a presentation
    names = [c["id"] for c in spec["components"]]
    names += [b for c in spec["components"] for b in c.get("branches", ())]
    names += [n["id"] for n in spec.get("nodes", ()) if "id" in n]
    names += [x for n in spec.get("nodes", ()) for end in n["ends"] for x in end]
    assert all(type(x) is str for x in names)
    assert all(len(n["ends"]) == 2 and all(len(end) == 2 for end in n["ends"])
               for n in spec.get("nodes", ()))
    assert pi1_presentation(curve).r == betti_rank(curve)


def test_load_curve_and_rep_from_demo_files():
    curve = spec_io.load_curve(DATA / "nodal_cubic.json")
    assert len(curve.components) == 1 and len(curve.nodes) == 1
    rep = spec_io.load_rep(DATA / "rank2_rep.json")
    assert rep.rank == 2 and rep.field.p == 3
    fq = spec_io.load_fq(DATA / "z2_sign.json", spec_io.load_curve(DATA / "cycle3.json"))
    assert fq.group.order == 2 and fq.rank == 1


def test_gen_image_extension_catches_bad_assignments():
    bad = {
        "p": 3, "rank": 1, "curve": {"components": [{"id": "C", "branches": ["a", "b"]}],
                                     "nodes": [{"ends": [["C", "a"], ["C", "b"]]}]},
        "z_images": [[["1"]]],
        "factors": [{"group": {"builtin": "cyclic", "n": 2},
                     "gen_images": [[["t"]]]}],  # t is not an involution
    }
    with pytest.raises(SpecParseError):
        spec_io.load_rep(bad)


def test_matrix_json_roundtrip():
    M = MatrixK.from_rows(F3, [["(t + 1)/(t)", "2"], ["0", "t^2"]])
    again = spec_io.matrix_from_json(F3, M.to_strings())
    assert again == M


# -- the command line ---------------------------------------------------------------

def run_cli(*argv, timeout=None):
    """Run ``nodalcover *argv`` in-process in DATA; return (exit code, stdout, stderr).

    It runs in DATA so that nested file references in the spec files resolve
    relative to them, as they would for a user in that directory.  A
    `SystemExit` (argparse's usage errors) gives its code, as the process
    would exit with.  A run still going after `timeout` seconds is
    interrupted by SIGALRM and the call raises `TimeoutError`.
    """
    out, err = StringIO(), StringIO()
    cwd = os.getcwd()
    os.chdir(DATA)
    if timeout is not None:
        previous = signal.signal(signal.SIGALRM, _out_of_time)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
    finally:
        if timeout is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def _out_of_time(signum, frame):
    raise TimeoutError("the command ran past its time limit")


def child_env():
    """The environment for a child interpreter, with PACKAGE_ROOT first on its path."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_ROOT)] + ([inherited] if inherited else []))
    return env


def run_cli_process(*argv, timeout=None):
    """Run ``python -m nodalcover.cli *argv`` in DATA; return (exit code, stdout, stderr).
    A child still running after `timeout` seconds is killed and the call raises."""
    proc = subprocess.run(
        [sys.executable, "-m", "nodalcover.cli", *argv],
        capture_output=True, text=True, cwd=str(DATA), env=child_env(), timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def assert_error_line(err):
    """The bad-input contract: an ``error:`` line on stderr, no traceback."""
    assert any(line.startswith("error:") for line in err.splitlines()), err
    assert "Traceback" not in err


def test_cli_pi1_nodal_cubic():
    code, out, _ = run_cli("pi1", "nodal_cubic.json")
    assert code == 0
    assert "rank_r: 1" in out


def test_cli_square_pass_and_exit_code():
    code, out, _ = run_cli("square", "z2_sign.json", "cycle3.json")
    assert code == 0
    assert "PASS" in out


def test_cli_square_json_deterministic():
    code1, out1, _ = run_cli("--format", "json", "square", "z2_sign.json", "cycle3.json")
    code2, out2, _ = run_cli("--format", "json", "square", "z2_sign.json", "cycle3.json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["ok"] is True
    assert payload["config"]["seed"] == 42


def syllable_grade_counts(r, orders, max_len):
    """Normal forms of Z^{*r} * G_1 * ... per generator length, by syllables:
    a Z syllable z_i^{+-k} weighs k, a finite syllable weighs 1, and adjacent
    syllables come from distinct factors.  ending[f][n] counts the words of
    length n whose last syllable lies in factor f."""
    weights = [{k: 2 for k in range(1, max_len + 1)} for _ in range(r)]
    weights += [{1: m - 1} for m in orders]
    total = [1] + [0] * max_len
    ending = [[0] * (max_len + 1) for _ in weights]
    for n in range(1, max_len + 1):
        for f, syllables in enumerate(weights):
            ending[f][n] = sum(c * (total[n - k] - ending[f][n - k])
                               for k, c in syllables.items() if k <= n)
        total[n] = sum(e[n] for e in ending)
    return total


def test_cli_square_work_does_not_grow_with_max_len():
    """At --max-len 40 the square covers about 1.3e23 normal forms of Z * S3;
    it certifies them from (last letter, quotient image) states, within seconds."""
    code, out, _ = run_cli_process("--format", "json", "--max-len", "40",
                                   "square", "s3_2dim.json", "nodal_cubic.json", timeout=10)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "PASS"
    assert payload["words_checked"] == sum(syllable_grade_counts(1, [6], 40))
    assert sum(syllable_grade_counts(1, [6], 6)) == 6018  # the pinned L = 6 report


def test_cli_free_work_does_not_grow_with_max_len():
    """At --max-len 40 the free certificate counts about 2.2e12 components of
    Z * Z2 from (last letter, alpha) states, within seconds.  A component
    Y^1_s is a word s not starting with the Z2 letter; by inversion these
    are as many as the words not ending in it."""
    code, out, _ = run_cli("--format", "json", "--max-len", "40",
                           "free", "rank1_rep.json", timeout=10)
    assert code == 0
    payload = json.loads(out)
    assert payload["signature"] == "Z^*1 * [Z2]"
    total = syllable_grade_counts(1, [2], 40)
    ending = [0] * 41  # words of length n ending in the Z2 letter
    for n in range(1, 41):
        ending[n] = total[n - 1] - ending[n - 1]
    components = sum(t - e for t, e in zip(total, ending))
    assert payload["components"] == components
    assert certify_free_oracle(FPSignature(1, (cyclic_group(2),)), 6).components == \
        sum(t - e for t, e in zip(total[:7], ending[:7]))


@pytest.mark.parametrize("argv", [("free", "rank1_rep.json"),
                                  ("square", "z2_sign.json", "cycle3.json")])
def test_cli_word_counts_refuse_a_max_len_past_their_bound(argv):
    """`free` and `square` count normal forms up to --max-len, and past
    cli.MAX_WORD_LEN a count could pass the digits Python converts to a
    string: 20,000 exits 2 with an error line, the bound itself runs."""
    code, out, err = run_cli("--max-len", "20000", *argv, timeout=10)
    assert code == 2 and not out
    assert_error_line(err)
    assert run_cli("--max-len", str(cli_module.MAX_WORD_LEN), *argv, timeout=10)[0] == 0


def test_cli_domain_work_does_not_grow_with_max_len():
    """The first kernel word is found in the first grades and the coverage
    targets stop at length 4, so a bound of 10^7 costs what 4 does."""
    code, out, _ = run_cli("--format", "json", "--max-len", "10000000",
                           "domain", "rank1_rep.json", timeout=10)
    assert code == 0
    payload = json.loads(out)
    small = json.loads(run_cli("--format", "json", "--max-len", "4",
                               "domain", "rank1_rep.json")[1])
    assert payload.pop("config")["max_len"] == 10000000
    small.pop("config")
    assert payload == small


def test_cli_descend_json_deterministic():
    args = ("--format", "json", "--max-len", "4", "descend", "rank2_rep.json")
    first = run_cli(*args)
    assert first == run_cli(*args)
    code, out, _ = first
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_sp_pipeline_and_descend_cap_integral_transport_alike():
    """`sp_pipeline` and `descend` list integral transport up to
    min(max_len, LATTICE_LEN): on rank2_rep.json at max_len 2 both build the
    7 components of length <= 2, not the 15 of length <= 3."""
    assert len(sp_pipeline(spec_io.load_rep(DATA / "rank2_rep.json"), max_len=2)
               .lattice.components) == 7
    code, out, _ = run_cli("--format", "json", "--max-len", "2", "descend", "rank2_rep.json")
    assert code == 0
    assert json.loads(out)["lattice_assignment"]["components"] == 7


def test_cli_free_and_domain_and_cover():
    assert run_cli("--max-len", "4", "free", "rank1_rep.json")[0] == 0
    assert run_cli("--max-len", "4", "domain", "rank2_rep.json")[0] == 0
    assert run_cli("cover", "rank1_rep.json")[0] == 0


def test_cli_strat_tensor_and_group_file_reference():
    code, out, _ = run_cli("--format", "json", "strat", "tensor",
                           "rank1_rep.json", "rank1_filegroup_rep.json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["rank"] == 1


def test_cli_strat_hom_unit_dimension():
    code, out, _ = run_cli("--format", "json", "strat", "hom", "rank1_rep.json",
                           "--mode", "K")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 1
    assert payload["scalar_field"] == "F_3"


def test_cli_hull_tower():
    code, out, _ = run_cli("--format", "json", "hull",
                           "z2.json", "z4.json", "z8.json", "--tower")
    assert code == 0
    assert json.loads(out)["dimensions"] == [2, 4, 8]


def test_cli_hull_at_the_order_budget(tmp_path):
    """A group at io.MAX_GROUP_ORDER gets its report within ten seconds:
    building the group proved its table, and the Hopf axioms follow from
    that (`HopfAlgebra`), so `hull` scans nothing again."""
    path = tmp_path / "z120.json"
    path.write_text(json.dumps({"builtin": "cyclic", "n": spec_io.MAX_GROUP_ORDER}))
    code, out, _ = run_cli("--format", "json", "hull", str(path), timeout=10)
    assert code == 0
    report = json.loads(out)
    assert report["dimension"] == 120 and report["cocommutative"] is True


def test_cli_rep_check():
    code, out, _ = run_cli("rep", "check", "rank2_rep.json")
    assert code == 0
    assert "rank: 2" in out and "prime: 3" in out


@pytest.mark.parametrize("command", [("rep", "check"), ("descend",)], ids=["rep-check", "descend"])
def test_cli_singular_z_image_exits_2(tmp_path, command):
    spec = json.loads((DATA / "rank1_rep.json").read_text())
    spec["z_images"] = [[["0"]]]
    spec["curve"] = str(DATA / "nodal_cubic.json")
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(*command, str(path))
    assert code == 2
    assert_error_line(err)
    assert "error: invalid rep: z1 image is singular" in err.splitlines()


def test_cli_bad_file_exits_2():
    code, _, err = run_cli("pi1", "no_such_file.json")
    assert code == 2
    assert_error_line(err)


@pytest.mark.parametrize("content", [
    b"\x80\x81\xfe\xff binary",
    '{"components": [{"id": "C1", "branches": []}]}'.encode("utf-16"),
], ids=["binary", "utf-16"])
@pytest.mark.parametrize("argv", [
    ["pi1"], ["hull"], ["descend"], ["square", None, "cycle3.json"],
], ids=["pi1", "hull", "descend", "square"])
def test_cli_non_utf8_spec_file_exits_2(tmp_path, content, argv):
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    args = [str(path) if a is None else a for a in argv]
    if None not in argv:
        args.append(str(path))
    code, _, err = run_cli(*args)
    assert code == 2
    assert_error_line(err)
    assert "cannot read spec file" in err


def test_cli_spec_nested_past_the_parser_depth_exits_2(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run_cli("pi1", str(path))
    assert code == 2
    assert_error_line(err)
    assert "cannot read spec file" in err


def test_cli_bad_prime_rejected():
    """Each spec carries its own p, so there is no --prime option: any value
    is a usage error, and a report's config echoes only max_len and seed,
    even over the p = 7 spec."""
    for value in ("6", "3"):
        code, out, err = run_cli("--prime", value, "pi1", "nodal_cubic.json")
        assert (code, out) == (2, "")
        assert "nodalcover: error:" in err and "Traceback" not in err
    code, out, _ = run_cli("--format", "json", "square", "s3_2dim.json", "nodal_cubic.json")
    assert code == 0 and json.loads(out)["config"] == {"max_len": 6, "seed": 42}


# A prime far past 2^31: trial division up to its square root would run for
# hours, so it must be refused by the characteristic bound before that.
HUGE_PRIME = 1000000000000000003


def test_cli_rep_p_above_the_bound_exits_2_at_once(tmp_path):
    spec = dict(FUZZED_SPECS["rep"], p=HUGE_PRIME, curve=str(DATA / "nodal_cubic.json"))
    path = tmp_path / "huge_p.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli("rep", "check", str(path), timeout=10)
    assert code == 2
    assert_error_line(err)
    assert "below 2^31" in err


# int() would read the last four as z1^10, element 11, z3 and element 1
MALFORMED_WORDS = ("z1^x", "q", "g1:", "z1^", "g1:xyz", "zq", "g",
                   "z1^1_0", "g1:1_1", "z\u0663", "g1:\uff11")


@pytest.mark.parametrize("word", ["g9:0", "g1:1", *MALFORMED_WORDS])
def test_cli_domain_bad_word_exits_2(word):
    # malformed, no such factor, and well formed but outside the kernel; a
    # malformed word's error names its bad token
    code, _, err = run_cli("--max-len", "3", "domain", "rank1_rep.json", "--word", word)
    assert code == 2
    assert_error_line(err)
    if word in MALFORMED_WORDS:
        assert f"cannot parse word token {word!r}" in err


def rank1_spec(**changes):
    """The rank1_rep.json spec with its curve by absolute path, edited."""
    spec = json.loads((DATA / "rank1_rep.json").read_text())
    spec["curve"] = str(DATA / "nodal_cubic.json")
    return dict(spec, **changes)


def trivial_factor(builtin, n=1, generators=1):
    return {"group": {"builtin": builtin, "n": n}, "gen_images": [[["1"]]] * generators}


# reps that rank1_rep.json cannot be paired with, and the mismatch each names
# for `strat hom` and for `strat tensor`
UNPAIRABLE = {
    "p5": (rank1_spec(p=5, factors=[{"group": {"builtin": "cyclic", "n": 2},
                                     "images": [[["1"]], [["4"]]]}]),
           "twist data over different coefficient fields",
           "tensor factors must share a coefficient field"),
    "cycle3": (rank1_spec(curve=str(DATA / "cycle3.json"),
                          factors=[trivial_factor("cyclic", 2), trivial_factor("trivial"),
                                   trivial_factor("trivial")]),
               "twist data over different signatures",
               "tensor factors must share a presentation"),
    "s3": (rank1_spec(factors=[trivial_factor("symmetric", 3, 2)]),
           "twist data over different signatures",
           "generator tuples of unequal length cannot be paired"),
    # the same curve and signature, with the self-node under another id
    "renamed-node": (rank1_spec(curve={
        "components": [{"id": "C1", "branches": ["a", "b"]}],
        "nodes": [{"id": "y9", "ends": [["C1", "a"], ["C1", "b"]]}]}),
        "twist data over different presentations",
        "tensor factors must share a presentation"),
}


@pytest.mark.parametrize("action", ["hom", "tensor"])
@pytest.mark.parametrize("other", sorted(UNPAIRABLE))
def test_cli_strat_on_unpairable_reps_exits_2(tmp_path, action, other):
    """Reps over different fields, presentations or signatures, or with
    generator tuples that cannot be paired, are malformed input: exit 2 with
    an error naming both files and the mismatch, not a certificate
    failure."""
    spec, hom_message, tensor_message = UNPAIRABLE[other]
    path = tmp_path / f"{other}.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli("strat", action, "rank1_rep.json", str(path))
    assert (code, out) == (2, "")
    assert_error_line(err)
    message = hom_message if action == "hom" else tensor_message
    assert err.startswith(f"error: rank1_rep.json and {path}: ") and message in err


def chain_spec(factors):
    """A rank-one rep of a chain of components with no loop, one component
    per factor."""
    n = len(factors)
    comps = [{"id": f"C{j}", "branches": ["L"] * (j > 0) + ["R"] * (j < n - 1)}
             for j in range(n)]
    nodes = [{"id": f"n{j}", "ends": [[f"C{j}", "R"], [f"C{j + 1}", "L"]]}
             for j in range(n - 1)]
    return {"p": 3, "rank": 1, "curve": {"components": comps, "nodes": nodes},
            "z_images": [], "factors": list(factors)}


def s4_chain_spec(n):
    """A chain of n components, each with the symmetric group on four points
    acting trivially."""
    return chain_spec([trivial_factor("symmetric", 4, 2)] * n)


@pytest.mark.parametrize("max_len", ["2", "3", "6"])
def test_cli_domain_default_word_needs_no_length_bound(tmp_path, max_len):
    """With no Z factor the first kernel word is a commutator of length 4,
    which the default finds at every --max-len."""
    path = tmp_path / "s3_z2.json"
    path.write_text(json.dumps(chain_spec([trivial_factor("symmetric", 3, 2),
                                           trivial_factor("cyclic", 2)])))
    code, out, _ = run_cli("--format", "json", "--max-len", max_len, "domain", str(path))
    assert code == 0
    assert json.loads(out)["word"] == "g1:021 * g2:1 * g1:021 * g2:1"


def test_cli_domain_over_a_trivial_kernel_exits_2(tmp_path):
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(chain_spec([trivial_factor("symmetric", 3, 2)])))
    code, out, err = run_cli("domain", str(path))
    assert (code, out) == (2, "")
    assert_error_line(err)
    assert "ker alpha is trivial" in err


@pytest.mark.parametrize("max_len", ["2", "6"])
def test_cli_domain_past_the_report_budget_exits_2_before_building(
        tmp_path, monkeypatch, max_len):
    """Three S4 factors give a core and boundary of about 1.4 million entries
    at any length: refused from the spec, before the domain is built."""
    def refuse(*args):
        raise AssertionError("the domain was built")

    monkeypatch.setattr(covering, "fundamental_domain", refuse)
    path = tmp_path / "s4_cubed.json"
    path.write_text(json.dumps(s4_chain_spec(3)))
    code, out, err = run_cli("--max-len", max_len, "domain", str(path),
                             "--word", "g1:1023 * g2:1023 * g1:1023 * g2:1023", timeout=10)
    assert (code, out) == (2, "")
    assert_error_line(err)
    assert f"budget of {cli_module.MAX_REPORT_ENTRIES}" in err


def test_cli_cover_past_the_report_budget_exits_2_before_building(tmp_path, monkeypatch):
    """A chain of three S5 factors has 1,728,000 fiber points, each listed
    by six actions: refused before the cover is built."""
    def refuse(*args):
        raise AssertionError("the cover was built")

    monkeypatch.setattr(covering, "build_finite_cover", refuse)
    spec = dict(s4_chain_spec(3), factors=[trivial_factor("symmetric", 5, 2)] * 3)
    path = tmp_path / "s5_cubed.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli("cover", str(path), timeout=10)
    assert (code, out) == (2, "")
    assert_error_line(err)
    assert "cover would list up to 10368000 entries" in err


@pytest.mark.parametrize("spec,max_len,word", [
    ("rank1_rep.json", "6", None),
    ("rank2_rep.json", "3", None),
    ("s4_squared", "2", "g1:1023 * g2:1023 * g1:1023 * g2:1023"),
    ("s4_squared", "3", "g1:1023 * g2:1023 * g1:1023 * g2:1023"),
])
def test_report_budget_bounds_the_domain_report(tmp_path, spec, max_len, word):
    """The estimate the budget is held to bounds the entries the report
    lists, and counts its witnesses exactly."""
    path = DATA / spec
    if spec == "s4_squared":
        path = tmp_path / "s4_squared.json"
        path.write_text(json.dumps(s4_chain_spec(2)))
    code, out, _ = run_cli("--format", "json", "--max-len", max_len, "domain", str(path),
                           *(("--word", word) if word else ()))
    assert code == 0
    report = json.loads(out)
    rep = spec_io.load_rep(path)
    witnesses = certify_free_action(rep.sig, min(int(max_len), 4)).components
    assert len(report["coverage_witnesses"]) == witnesses
    listed = report["core_size"] + len(report["boundary"]) + witnesses
    assert listed <= cli_module._domain_entries(rep, int(max_len)) <= cli_module.MAX_REPORT_ENTRIES


def test_report_budget_admits_every_demo_spec():
    for name in ("rank1_rep.json", "rank2_rep.json", "rank1_filegroup_rep.json"):
        assert run_cli("--max-len", "40", "domain", name)[0] == 0
        assert run_cli("--max-len", "40", "descend", name)[0] == 0
        assert run_cli("cover", name)[0] == 0


def looped_sign_spec(n):
    """The sign rep over p = 3 of a chain of two components, each with the
    symmetric group on n points, joined by two nodes: one loop."""
    sign = {"group": {"builtin": "symmetric", "n": n},
            "gen_images": [[["2"]], [["1" if n % 2 else "2"]]]}
    return {"p": 3, "rank": 1,
            "curve": {"components": [{"id": "C0", "branches": ["R", "a"]},
                                     {"id": "C1", "branches": ["L", "b"]}],
                      "nodes": [{"id": "n0", "ends": [["C0", "R"], ["C1", "L"]]},
                                {"id": "n1", "ends": [["C0", "a"], ["C1", "b"]]}]},
            "z_images": [[["t"]]], "factors": [sign, sign]}


@pytest.mark.parametrize("n,max_len,entries", [
    (5, "6", 445_935_849 + 3_686_872),
    (5, "3", 3_628_317 + 3_686_872),
    (4, "6", 916_329 + 36_952),
], ids=["s5-default", "s5-len3", "s4-default"])
def test_cli_descend_past_the_report_budget_exits_2_before_building(
        tmp_path, monkeypatch, n, max_len, entries):
    """The cocycle check stores one twist per normal form up to
    min(--max-len, 4) and the lattice assignment lists the components up to
    min(--max-len, 3): counted from states and refused before either is
    built."""
    def refuse(*args):
        raise AssertionError("a twist or a lattice was built")

    monkeypatch.setattr(descent, "check_cocycle", refuse)
    monkeypatch.setattr(descent, "integralize", refuse)
    path = tmp_path / f"s{n}_looped.json"
    path.write_text(json.dumps(looped_sign_spec(n)))
    code, out, err = run_cli("--max-len", max_len, "descend", str(path), timeout=10)
    assert (code, out) == (2, "")
    assert_error_line(err)
    assert (f"descend would list up to {entries} entries, "
            f"above the budget of {cli_module.MAX_REPORT_ENTRIES}") in err


@pytest.mark.parametrize("spec,max_len", [
    ("rank1_rep.json", "6"),
    ("rank2_rep.json", "3"),
    ("rank1_filegroup_rep.json", "2"),
    ("s3_looped", "4"),
])
def test_descend_budget_counts_the_twists_and_components_built(
        tmp_path, monkeypatch, spec, max_len):
    """The estimate the budget is held to equals the twists the cocycle
    check stores plus the components the lattice assignment lists."""
    path = DATA / spec
    if spec == "s3_looped":
        path = tmp_path / "s3_looped.json"
        path.write_text(json.dumps(looped_sign_spec(3)))
    built = []
    twist_map, integralize = MeromorphicCocycle.twist_map, descent.integralize

    def counted_twist_map(self, L):
        out = twist_map(self, L)
        built.append(len(out))
        return out

    def counted_integralize(c, max_len):
        out = integralize(c, max_len=max_len)
        built.append(len(out.components))
        return out

    monkeypatch.setattr(MeromorphicCocycle, "twist_map", counted_twist_map)
    monkeypatch.setattr(descent, "integralize", counted_integralize)
    assert run_cli("--max-len", max_len, "descend", str(path))[0] == 0
    assert len(built) == 2
    sig = spec_io.load_rep(path).sig
    assert sum(built) == cli_module._descend_entries(sig, int(max_len))


PAST_BUDGET = spec_io.MAX_GROUP_ORDER + 1


@pytest.mark.parametrize("spec", [
    {"builtin": "cyclic", "n": 10 ** 9},
    {"builtin": "symmetric", "n": 8},
    {"builtin": "dihedral", "n": PAST_BUDGET // 2 + 1},
    {"table": [[(a + b) % PAST_BUDGET for b in range(PAST_BUDGET)]
               for a in range(PAST_BUDGET)]},
], ids=["cyclic-1e9", "symmetric-8", "dihedral-past-budget", "table-past-budget"])
def test_cli_hull_group_past_the_order_budget_exits_2(tmp_path, spec):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli("hull", str(path), timeout=10)
    assert code == 2
    assert_error_line(err)
    assert "budget" in err


@pytest.mark.parametrize("literal", [
    "t^99999999999", "(1)/(t^99999999999)", f"2*t^{MAX_LITERAL_DEGREE + 1} + 1"])
def test_cli_literal_past_the_degree_budget_exits_2(tmp_path, literal):
    # only exponents above the budget: they are refused before any allocation
    spec = json.loads((DATA / "rank2_rep.json").read_text())
    spec["curve"] = str(DATA / spec["curve"])
    spec["z_images"] = [[[literal, "1"], ["0", "1"]]]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli("rep", "check", str(path), timeout=10)
    assert code == 2 and out == ""
    assert_error_line(err)
    assert f"above the degree budget of {MAX_LITERAL_DEGREE}" in err


@pytest.mark.parametrize("literal, message", [
    ("t^-1", "negative exponent in 't^-1'"),
    ("2*t^-2 + 1", "negative exponent in '2*t^-2'"),
    ("2**t", "cannot parse term '2**t'"),
    ("2***t", "cannot parse term '2***t'"),
    ("1_0", "cannot parse term '1_0'"),
    ("t^1_0", "cannot parse exponent in term 't^1_0'"),
    ("\u0663", "cannot parse term '\u0663'"),
    ("\uff11\uff12", "cannot parse term '\uff11\uff12'"),
])
def test_cli_malformed_literal_exits_2_naming_the_term(tmp_path, literal, message):
    spec = json.loads((DATA / "rank2_rep.json").read_text())
    spec["curve"] = str(DATA / spec["curve"])
    spec["z_images"] = [[[literal, "1"], ["0", "1"]]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli("rep", "check", str(path), timeout=10)
    assert code == 2 and out == ""
    assert_error_line(err)
    assert message in err


@pytest.mark.parametrize("literal", ["t+", "t++1", "+", "", "()", "(1)/()", "t + -1", "+-t"])
def test_cli_literal_with_an_empty_term_exits_2(tmp_path, literal):
    """A sign with no term after it, or a literal with no term at all, is
    refused; it used to read as if the empty term were absent or zero."""
    spec = json.loads((DATA / "rank2_rep.json").read_text())
    spec["curve"] = str(DATA / spec["curve"])
    spec["z_images"] = [[["1", literal], ["0", "1"]]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli("rep", "check", str(path), timeout=10)
    assert code == 2 and out == ""
    assert_error_line(err)
    assert any(line.startswith("error: bad matrix literal: empty term in ")
               for line in err.splitlines()), err


@pytest.mark.parametrize("literal", ["-t", "+t", "- 1 + t"])
def test_cli_literal_with_a_leading_sign_loads(tmp_path, literal):
    spec = json.loads((DATA / "rank2_rep.json").read_text())
    spec["curve"] = str(DATA / spec["curve"])
    spec["z_images"] = [[["1", literal], ["0", "1"]]]
    path = tmp_path / "signed.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli("rep", "check", str(path), timeout=10)
    assert (code, err) == (0, "") and "ok: True" in out


@pytest.mark.parametrize("edit, line", [
    ({"curve": 5}, "error: a curve spec must be a JSON object or a file path string, got 5"),
    ({"curve": None},
     "error: a curve spec must be a JSON object or a file path string, got None"),
    ({"curve": ["nodal_cubic.json"]}, "error: a curve spec must be a JSON object or a "
                                      "file path string, got ['nodal_cubic.json']"),
    ({"factors": [{"group": True, "gen_images": []}]},
     "error: a group spec must be a JSON object or a file path string, got True"),
], ids=["curve-int", "curve-null", "curve-list", "group-boolean"])
def test_cli_spec_reference_of_the_wrong_kind_exits_2(tmp_path, edit, line):
    """A nested spec is an object or the path of a file holding one; any
    other JSON value is refused naming both, not with Python's own text."""
    spec = dict(json.loads((DATA / "rank2_rep.json").read_text()),
                curve=str(DATA / "nodal_cubic.json"))
    spec.update(edit)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli("rep", "check", str(path))
    assert (code, out) == (2, "")
    assert_error_line(err)
    assert line in err.splitlines()


def test_cli_spec_file_holding_no_object_exits_2(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([{"builtin": "cyclic", "n": 2}]))
    code, out, err = run_cli("hull", str(path))
    assert (code, out) == (2, "")
    assert_error_line(err)
    assert "error: a group spec must be a JSON object or a file path string" in err


def test_cli_hull_tower_non_homomorphism_exits_2(tmp_path):
    # x -> x % 2 is not a homomorphism from S3 (element order) onto Z2
    s3 = tmp_path / "s3.json"
    s3.write_text(json.dumps({"builtin": "symmetric", "n": 3}))
    code, _, err = run_cli("hull", "--tower", "z2.json", str(s3))
    assert code == 2
    assert_error_line(err)


def test_cli_hull_tower_orders_that_do_not_divide_exit_2(tmp_path):
    z3 = tmp_path / "z3.json"
    z3.write_text(json.dumps({"builtin": "cyclic", "n": 3}))
    code, out, err = run_cli("hull", "--tower", "z2.json", str(z3))
    assert code == 2 and out == ""
    assert_error_line(err)
    assert "x mod |low|" in err and "|Z2| = 2 does not divide |Z3| = 3" in err


@pytest.mark.parametrize("spec", [
    {"builtin": "cyclic", "n": "x"},
    {"builtin": "cyclic", "n": 1.5},
    {"builtin": "symmetric", "n": -3},
    {"table": [[0]], "generators": 5},
    {"table": [[0.5]]},
    {"table": [["0"]]},
    {"table": [[0, 1], [1, 0]], "order": 2.7},
    {"table": [[0, 1], [1, 0]], "generators": [True]},
    {"table": [[0]], "name": [1]},
    {"table": [[0, 1], [1, 0]], "labels": "ab"},
    {"table": [[0, 1], [1, 0]], "labels": [1, True]},
], ids=["n-not-a-number", "n-fractional", "n-negative", "generators-not-a-list",
        "entry-fractional", "entry-string", "order-fractional", "generator-boolean",
        "name-not-a-string", "labels-a-string", "labels-not-strings"])
def test_cli_hull_malformed_group_exits_2(tmp_path, spec):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli("hull", str(path))
    assert code == 2
    assert_error_line(err)


def test_cli_group_spec_raising_an_unexpected_error_exits_2(tmp_path, monkeypatch):
    """A failure of a kind the group loader does not anticipate still ends
    in an error line and exit 2, as for every other spec kind."""
    def broken(n):
        raise ArithmeticError("table construction broke")

    monkeypatch.setattr(groups, "cyclic_group", broken)
    path = tmp_path / "z4.json"
    path.write_text(json.dumps({"builtin": "cyclic", "n": 4}))
    code, out, err = run_cli("hull", str(path))
    assert (code, out) == (2, "")
    assert_error_line(err)
    assert "error: invalid group: table construction broke" in err.splitlines()


@pytest.mark.parametrize("kind,field,value", [
    ("rep", "rank", 2.7),
    ("rep", "p", "3"),
    ("rep", "p", 3.9),
    ("rep", "p", True),
    ("fq", "rank", True),
    ("fq", "z_to", [4.0]),
    ("fq", "factor_to", [[0, 1, 2, 3, 4, "5"]]),
], ids=["rank-fractional", "p-string", "p-fractional", "p-boolean", "fq-rank-boolean",
        "z_to-float", "factor_to-string"])
def test_cli_malformed_rep_or_fq_integer_exits_2(tmp_path, kind, field, value):
    spec = dict(FUZZED_SPECS[kind], **{field: value})
    path = tmp_path / "bad.json"
    if kind == "rep":
        spec["curve"] = str(DATA / "nodal_cubic.json")
        path.write_text(json.dumps(spec))
        code, _, err = run_cli("rep", "check", str(path))
    else:
        path.write_text(json.dumps(spec))
        code, _, err = run_cli("square", str(path), "nodal_cubic.json")
    assert code == 2
    assert_error_line(err)
    assert f"{field} " in err and "must be prime" not in err


@pytest.mark.parametrize("argv,line", [
    (("rep", "check", "z2.json"), "error: bad rep spec: missing key 'p'"),
    (("square", "z2.json", "cycle3.json"), "error: bad quotient rep spec: missing key 'p'"),
    (("hull", "nodal_cubic.json"), "error: bad group spec: missing key 'table'"),
    (("pi1", "z2.json"), "error: bad curve spec: missing key 'components'"),
], ids=["rep", "quotient", "group", "curve"])
def test_cli_spec_without_a_required_key_names_it(argv, line):
    """Each loader reads a spec of another kind as one missing a key, and
    says which key, not only its name."""
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert_error_line(err)
    assert line in err.splitlines()


IMAGES_Z2 = [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]]


@pytest.mark.parametrize("edit,message", [
    ({"rank": 7, "factors": [{"group": {"builtin": "cyclic", "n": 2}, "images": IMAGES_Z2}]},
     "declared rank 7"),
    ({"rank": 1}, "declared rank 1"),
    ({"rank": 3, "z_images": []}, "declared rank 3"),
    ({"z_images": [[["t", 1], [0, 1]]]}, "matrix entry 1 is not a string"),
    ({"z_images": [[["1", True], ["0", "1"]]]}, "matrix entry True is not a string"),
    ({"z_images": ["t"]}, "list of rows"),
    ({"factors": [{"group": {"builtin": "cyclic", "n": 2}, "images": []}]},
     "error: bad rep spec: factor hom 1 (Z2): need one matrix per group element"),
], ids=["rank-7-images", "rank-1-z_images", "rank-3-gen_images", "entry-number",
        "entry-boolean", "rows-not-lists", "images-empty"])
def test_cli_rep_matrix_shape_or_entry_mismatch_exits_2(tmp_path, edit, message):
    spec = dict(FUZZED_SPECS["rep"], **edit)
    spec["curve"] = str(DATA / "nodal_cubic.json")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli("rep", "check", str(path))
    assert code == 2
    assert_error_line(err)
    assert message in err


TWO_LOOPS = {"components": [{"id": "C1", "branches": ["a", "b"]},
                            {"id": "C2", "branches": ["a", "b"]}],
             "nodes": [{"id": "x0", "ends": [["C1", "a"], ["C1", "b"]]},
                       {"id": "x1", "ends": [["C2", "a"], ["C2", "b"]]}]}


@pytest.mark.parametrize("spec", [
    TWO_LOOPS,
    {"components": [{"id": "C1", "branches": ["a", "b"]}],
     "nodes": [{"id": None, "ends": [["C1", "a"], ["C1", "b"]]}]},
    {"components": [{"id": "C1", "branches": "ab"}],
     "nodes": [{"id": "x0", "ends": [["C1", "a"], ["C1", "b"]]}]},
    {"components": [{"id": "C1", "branches": ["a", "b"]}],
     "nodes": [{"id": "x0", "ends": ["C1a", ["C1", "b"]]}]},
], ids=["disconnected", "node-id-null", "branches-a-string", "end-not-a-pair"])
def test_cli_pi1_malformed_curve_exits_2(tmp_path, spec):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli("pi1", str(path))
    assert code == 2
    assert_error_line(err)


@pytest.mark.parametrize("kind,edit,message", [
    ("curve", {"components": "x"}, "components must be a list, got 'x'"),
    ("curve", {"nodes": {"a": 1}}, "nodes must be a list, got {'a': 1}"),
    ("rep", {"factors": "x"}, "factors must be a list, got 'x'"),
    ("rep", {"z_images": {"a": 1}}, "z_images must be a list, got {'a': 1}"),
    ("rep", {"factors": [{"group": {"builtin": "cyclic", "n": 2}, "images": "x"}]},
     "images must be a list, got 'x'"),
    ("fq", {"source_groups": "x"}, "source_groups must be a list, got 'x'"),
    ("fq", {"factor_to": 5}, "factor_to must be a list, got 5"),
    ("fq", {"factor_to": [5]}, "factor_to row must be a list, got 5"),
    ("fq", {"z_to": "4"}, "z_to must be a list, got '4'"),
], ids=["components-a-string", "nodes-an-object", "factors-a-string", "z_images-an-object",
        "images-a-string", "source_groups-a-string", "factor_to-a-number",
        "factor_to-row-a-number", "z_to-a-string"])
def test_cli_spec_list_key_not_a_list_names_it(tmp_path, kind, edit, message):
    """A list-valued key that holds a string, an object or a number is
    refused by name before it is iterated, so no Python message leaks, no
    object key is read as a matrix and no string as a file path."""
    spec = dict(json.loads((DATA / "nodal_cubic.json").read_text()) if kind == "curve"
                else FUZZED_SPECS[kind], **edit)
    if kind == "rep":
        spec["curve"] = str(DATA / "nodal_cubic.json")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    argv = {"curve": ("pi1", str(path)), "rep": ("rep", "check", str(path)),
            "fq": ("square", str(path), "nodal_cubic.json")}[kind]
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert_error_line(err)
    assert err.splitlines()[-1].endswith(message)


def test_cli_main_callable_in_process(capsys):
    code = main(["--format", "json", "pi1", str(DATA / "nodal_cubic.json")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank_r"] == 1 and payload["betti"] == 1


def test_cli_paths_are_relative_to_the_working_directory(tmp_path, monkeypatch):
    """A path with a directory part names the file from the working directory;
    a spec's nested file references stay relative to the spec itself."""
    shutil.copytree(DATA, tmp_path / "specs")
    commands = (["pi1", "nodal_cubic.json"], ["square", "z2_sign.json", "cycle3.json"],
                ["rep", "check", "rank1_filegroup_rep.json"])
    expected = [run_cli("--format", "json", *argv) for argv in commands]
    monkeypatch.chdir(tmp_path)
    for argv, want in zip(commands, expected):
        argv = [f"specs/{a}" if a.endswith(".json") else a for a in argv]
        out = StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--format", "json", *argv])
        assert (code, out.getvalue()) == want[:2]
        assert code == 0


def test_cli_main_builds_its_parser_once(monkeypatch):
    run_cli("pi1", "nodal_cubic.json")
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run_cli("pi1", "nodal_cubic.json")[0] == 0
    assert built == []



@pytest.mark.parametrize("argv", [
    ("pi1", "nodal_cubic.json"),
    ("rep", "check", "rank2_rep.json"),
    ("square", "z2_sign.json", "cycle3.json"),
    ("domain", "rank1_rep.json"),
    ("descend", "rank1_rep.json"),
    ("free", "rank1_rep.json"),
], ids=lambda argv: argv[0] if argv[0] != "rep" else "rep_check")
def test_cli_request_builds_one_spanning_forest(monkeypatch, argv):
    """A curve builds its Kruskal forest once, in construction, and the
    presentation, the Betti rank and the dual graph read it, so a request
    that loads one curve builds one forest."""
    built = count_curve_builds(monkeypatch)
    code, _, err = run_cli(*argv)
    assert code == 0, err
    assert len(built) == 1


# -- the command line through a real process --------------------------------------
# Every test above runs `cli.main` in-process.  These start an interpreter for
# what only a child shows: the module entry, the package the child imports,
# exit codes as the operating system reports them, and a stderr without a
# traceback.  Each one also checks that the in-process run gives the same
# exit code, stdout and stderr.

def test_cli_process_imports_the_package_under_test():
    proc = subprocess.run(
        [sys.executable, "-c", "import nodalcover; print(nodalcover.__file__)"],
        capture_output=True, text=True, cwd=str(DATA), env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve() == Path(nodalcover.__file__).resolve()


REP_LAYERS = {"cli", "covering", "curves", "errors", "field", "groups", "io", "reps"}


@pytest.mark.parametrize("argv,layers", [
    (("pi1", "nodal_cubic.json"), {"cli", "curves", "errors", "io"}),
    (("hull", "z2.json"), {"cli", "errors", "groups", "hopf", "io"}),
    (("domain", "rank2_rep.json"), REP_LAYERS),
    (("descend", "rank2_rep.json"), REP_LAYERS | {"descent"}),
    (("square", "z2_sign.json", "cycle3.json"),
     REP_LAYERS | {"descent", "specialize", "stratified"}),
], ids=["pi1", "hull", "domain", "descend", "square"])
def test_cli_process_loads_only_the_layers_its_command_runs(argv, layers):
    """The package root imports nothing and a command imports the layers
    beyond `io` and `errors` when it runs, so a child that runs `pi1` loads
    no groups, one that runs `hull` no curves, and neither loads field, reps,
    covering, descent, stratified, specialize or selfcheck.  A command on a
    rep loads the rep's layers and those of its own certificate, never hopf
    or selfcheck.  The value types are plain classes, so no child loads
    `dataclasses` or the `inspect` module that it imports."""
    script = ("import sys\nfrom nodalcover.cli import main\n"
              f"code = main({list(argv)!r})\n"
              "print(*sorted(sys.modules), sep='\\n', file=sys.stderr)\n"
              "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=str(DATA), env=child_env())
    assert proc.returncode == 0, proc.stderr
    loaded = {name.removeprefix("nodalcover.") for name in proc.stderr.split()
              if name.startswith("nodalcover.")}
    assert loaded == layers
    assert not {"dataclasses", "inspect"} & set(proc.stderr.split())
    assert run_cli(*argv)[:2] == (0, proc.stdout)


def test_covering_import_loads_no_matrix_layer():
    """The covering layer computes with words and signatures alone, so a
    child that imports it loads `groups`, `curves` and `errors` beside it,
    and neither `reps` nor `field`."""
    script = "import sys\nimport nodalcover.covering\nprint(*sorted(sys.modules), sep='\\n')\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=str(DATA), env=child_env())
    assert proc.returncode == 0, proc.stderr
    loaded = {name for name in proc.stdout.split() if name.split(".")[0] == "nodalcover"}
    assert loaded == {"nodalcover", "nodalcover.covering", "nodalcover.curves",
                      "nodalcover.errors", "nodalcover.groups"}


# Z7 reached from one Z generator: at --max-len 2 the words z^{+-1}, z^{+-2}
# miss the elements 3 and 4, so the square fails (exit 1); it passes at 3.
Z7_QUOTIENT = {"p": 3, "rank": 1, "source_groups": [{"builtin": "trivial"}],
               "quotient": {"builtin": "cyclic", "n": 7}, "z_to": [1], "factor_to": [[0]],
               "hom": [[["1"]]] * 7}


@pytest.mark.parametrize("argv,expected", [
    (["pi1", "nodal_cubic.json"], 0),
    (["--max-len", "2", "square", None, "nodal_cubic.json"], 1),
    (["pi1", "no_such_file.json"], 2),
    (["--depth", "3", "pi1", "nodal_cubic.json"], 2),
], ids=["pass", "failed-certificate", "missing-file", "usage-error"])
def test_cli_process_exit_codes(tmp_path, argv, expected):
    path = tmp_path / "z7.json"
    path.write_text(json.dumps(Z7_QUOTIENT))
    argv = [str(path) if a is None else a for a in argv]
    code, out, err = run_cli_process(*argv)
    assert code == expected
    assert "Traceback" not in err
    assert run_cli(*argv) == (code, out, err)


@pytest.mark.parametrize("kind,command", [
    ("curve", ["pi1"]),
    ("group", ["hull"]),
    ("rep", ["rep", "check"]),
    ("fq", ["square", None, "nodal_cubic.json"]),
])
def test_cli_process_malformed_input_per_loader_exits_2(tmp_path, kind, command):
    spec = {"curve": TWO_LOOPS,
            "group": {"table": [[0.5]]},
            "rep": dict(FUZZED_SPECS["rep"], rank=2.7, curve=str(DATA / "nodal_cubic.json")),
            "fq": dict(FUZZED_SPECS["fq"], z_to=[4.0])}[kind]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    argv = [str(path) if a is None else a for a in command]
    if None not in command:
        argv.append(str(path))
    code, out, err = run_cli_process(*argv)
    assert code == 2 and out == ""
    assert_error_line(err)
    assert run_cli(*argv) == (code, out, err)


def test_cli_in_process_calls_in_a_row_print_what_fresh_processes_print():
    """The shared parser carries nothing from one call to the next: a usage
    error, then an explicit --max-len, then the default."""
    sequence = (["--depth", "3", "pi1", "nodal_cubic.json"],
                ["--max-len", "5", "--format", "json", "hull", "z2.json"],
                ["--format", "json", "hull", "z2.json"])
    results = [run_cli(*argv) for argv in sequence]
    assert results == [run_cli_process(*argv) for argv in sequence]
    assert [code for code, _, _ in results] == [2, 0, 0]
    assert [json.loads(out)["config"]["max_len"] for _, out, _ in results[1:]] == [5, 6]


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_cli_in_process_agrees_with_the_process_on_golden_commands(name):
    argv = ["--format", "json", *REPORT_CASES[name]]
    assert run_cli(*argv) == run_cli_process(*argv)
