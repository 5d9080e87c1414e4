"""Each deterministic count the README quotes, recomputed from the library.

A test finds its README sentence by a pattern and recomputes every number
in it, so a change that moves a count fails until the README moves with it.
Times are not tested here.
"""

import re
from pathlib import Path

import pytest

from nodalcover import cli
from nodalcover import io as spec_io
from nodalcover.covering import certify_free_action
from nodalcover.curves import pi1_presentation
from nodalcover.descent import COCYCLE_LEN, FiniteCocycle
from nodalcover.errors import SpecParseError
from nodalcover.field import MatrixK
from nodalcover.groups import iter_grade_states
from nodalcover.specialize import commuting_square_check

from helpers import growth_counts
from test_io_cli import looped_sign_spec, s4_chain_spec

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
DATA = ROOT / "demos" / "data"


def readme_text() -> str:
    """The README with each run of whitespace read as one space, so a
    pattern does not depend on where a paragraph wraps."""
    return " ".join(README.read_text().split())


SQUARE_SENTENCE = re.compile(
    r"`square s3_2dim\.json nodal_cubic\.json` covers ([\d,]+) normal forms at the "
    r"default `--max-len (\d+)` and about (\d\.\d)·10\^(\d+) at `--max-len (\d+)`, "
    r"with (\d+) matrix products at both: (\d+) for the walk and (\d+) for the one check")


def test_readme_square_counts_match_a_run(monkeypatch):
    """The README's `square` paragraph states the S3 square's normal forms
    at two lengths and its matrix products at both, split into the
    collapse's walk and its one law check.  A counting `MatrixK.__mul__`
    recomputes each number; the law check's products are the ones taken
    from the call of `FiniteCocycle.check_law` on."""
    match = SQUARE_SENTENCE.search(readme_text())
    assert match, "the README's square sentence was not found"
    forms, short, mantissa, exponent, long, total, walk, check = match.groups()
    curve = spec_io.load_curve(DATA / "nodal_cubic.json")
    fq = spec_io.load_fq(DATA / "s3_2dim.json", curve)
    count, at_check = [0], []
    mul, check_law = MatrixK.__mul__, FiniteCocycle.check_law

    def counted(a, b):
        count[0] += 1
        return mul(a, b)

    def counted_law(fin):
        at_check.append(count[0])
        return check_law(fin)

    monkeypatch.setattr(MatrixK, "__mul__", counted)
    monkeypatch.setattr(FiniteCocycle, "check_law", counted_law)
    words = []
    for max_len in (int(short), int(long)):
        count[0], at_check[:] = 0, []
        words.append(commuting_square_check(fq, pi1_presentation(curve), max_len).words_checked)
        assert len(at_check) == 1
        assert (count[0], at_check[0], count[0] - at_check[0]) == \
            (int(total), int(walk), int(check))
    assert words[0] == int(forms.replace(",", ""))
    assert f"{words[1]:.1e}" == f"{mantissa}e+{exponent}"


FREE_SENTENCE = re.compile(
    r"`free rank1_rep\.json` counts about (\d\.\d)·10\^(\d+) components at "
    r"`--max-len (\d+)`")


def test_readme_free_count_matches_a_run():
    """The README's `free` paragraph gives the components that `free
    rank1_rep.json` counts at one `--max-len`, to two significant figures;
    the freeness certificate recomputes the count (2,199,023,255,551 at
    length 40)."""
    match = FREE_SENTENCE.search(readme_text())
    assert match, "the README's free sentence was not found"
    mantissa, exponent, max_len = match.groups()
    sig = spec_io.load_rep(DATA / "rank1_rep.json").sig
    components = certify_free_action(sig, int(max_len)).components
    assert f"{components:.1e}" == f"{mantissa}e+{exponent}"


def test_readme_free_count_matches_the_growth_series():
    """The same figure from the growth series of Z * Z2, which walks no
    word: the components of length at most `--max-len`."""
    match = FREE_SENTENCE.search(readme_text())
    assert match, "the README's free sentence was not found"
    mantissa, exponent, max_len = match.groups()
    sig = spec_io.load_rep(DATA / "rank1_rep.json").sig
    components = growth_counts(sig, int(max_len)).components
    assert f"{components:.1e}" == f"{mantissa}e+{exponent}"


DOMAIN_BUDGET_SENTENCE = re.compile(
    r"S4² at `--max-len (\d+)` \(([\d,]+) entries\) took [\d.]+ s and \d+ MB, "
    r"at `--max-len (\d+)` \(([\d,]+) entries\)")

S4_CUBED_SENTENCE = re.compile(r"S4³ at `--max-len (\d+)` \(about (\d\.\d) million entries\)")

DESCEND_BUDGET_SENTENCE = re.compile(
    r"On the sign rep of a looped chain of two S4 factors that is ([\d,]+) entries at "
    r"the default `--max-len`, which exits 2 at once, and ([\d,]+) at `--max-len (\d+)`, "
    r"which runs; two S5 factors give (\d\.\d) million entries even at `--max-len (\d+)`, "
    r"(\d\.\d) million of them twist matrices")


def count(text: str) -> int:
    return int(text.replace(",", ""))


def test_readme_domain_budget_counts_match_the_estimate():
    """The README's report-budget paragraph gives the entries of a `domain`
    report on a chain of two S4 factors at two lengths; `cli._domain_entries`,
    the estimate the budget is held to, recomputes both."""
    match = DOMAIN_BUDGET_SENTENCE.search(readme_text())
    assert match, "the README's domain budget sentence was not found"
    short, short_entries, long, long_entries = match.groups()
    rep = spec_io.load_rep(s4_chain_spec(2))
    assert cli._domain_entries(rep, int(short)) == count(short_entries)
    assert cli._domain_entries(rep, int(long)) == count(long_entries)


def test_readme_s4_cubed_count_is_the_refused_bound():
    """The README gives the entries of a `domain` report on a chain of three
    S4 factors in millions, rounded; `cli._domain_entries` refuses that spec
    before the witness walk, and the bound its message names rounds to the
    README's figure."""
    match = S4_CUBED_SENTENCE.search(readme_text())
    assert match, "the README's S4 cubed sentence was not found"
    max_len, millions = match.groups()
    rep = spec_io.load_rep(s4_chain_spec(3))
    with pytest.raises(SpecParseError) as refused:
        cli._domain_entries(rep, int(max_len))
    bound = re.search(r"would list up to (\d+) entries", str(refused.value))
    assert bound, str(refused.value)
    assert f"{int(bound.group(1)) / 1e6:.1f}" == millions


def test_readme_descend_budget_counts_match_the_estimate():
    """The README gives the entries `descend` would build on the looped sign
    rep of two S4 factors at the default `--max-len` and at a shorter one,
    and on two S5 factors, with the share of twist matrices: one per normal
    form up to min(--max-len, COCYCLE_LEN).  `cli._descend_entries`
    recomputes each total and the normal-form walk the twists."""
    match = DESCEND_BUDGET_SENTENCE.search(readme_text())
    assert match, "the README's descend budget sentence was not found"
    default, short_entries, short, s5_millions, s5_len, twist_millions = match.groups()
    s4 = spec_io.load_rep(looped_sign_spec(4)).sig
    s5 = spec_io.load_rep(looped_sign_spec(5)).sig
    default_len = cli.build_parser().parse_args(["selftest"]).max_len
    assert cli._descend_entries(s4, default_len) == count(default)
    assert cli._descend_entries(s4, int(short)) == count(short_entries)
    total = cli._descend_entries(s5, int(s5_len))
    twists = sum(sum(grade.values()) for grade in iter_grade_states(
        s5, min(int(s5_len), COCYCLE_LEN), None, lambda *_: None))
    assert f"{total / 1e6:.1f}" == s5_millions
    assert f"{twists / 1e6:.1f}" == twist_millions
