"""Each deterministic count the README quotes, recomputed from the library.

A test finds its README sentence by a pattern and recomputes every number
in it, so a change that moves a count fails until the README moves with it.
Times are not tested here.
"""

import re
from pathlib import Path

from nodalcover import io as spec_io
from nodalcover.curves import pi1_presentation
from nodalcover.descent import FiniteCocycle
from nodalcover.field import MatrixK
from nodalcover.specialize import commuting_square_check

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
