"""The README's examples that state a result, run against the code, so
the documentation cannot drift from what the package returns."""

from pathlib import Path

import pytest

import patfix
from patfix.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# Each library example as the README shows it, the result it states
# there, and the value that the call returns.
LIBRARY = [
    ('refined_count(4, "123,321")', "# [4, 0, 0, 0, 0]", [4, 0, 0, 0, 0]),
    ('[p.compact() for p in enumerate_avoiders(3, "231,312")]',
     "# ['123', '132', '213', '321']", ["123", "132", "213", "321"]),
    ('evaluate("thm-231-312", 3, 1)', "# 3", 3),
    ('generate("132,213,321", 4)', "# the four rotations of 1234",
     [patfix.Permutation(p) for p in ("1234", "2341", "3412", "4123")]),
    ("series_coefficients(gf_for_k(0), 7)", "# [1, 0, 1, 1, 2, 3, 5, 8]", [1, 0, 1, 1, 2, 3, 5, 8]),
    ('audit_formula("thm-132-231", 9).status', "# 'discrepant'", "discrepant"),
]


@pytest.mark.parametrize("call, shown, expected", LIBRARY, ids=[
    "refined_count", "enumerate_avoiders", "evaluate", "generate", "series_coefficients",
    "audit_formula",
])
def test_library_example(call, shown, expected):
    # The stated result follows the call, on its line or the next.
    assert README[README.index(call) + len(call):].lstrip(" \n").startswith(shown)
    assert eval(call, vars(patfix)) == expected


def test_cli_example(capsys):
    argv = "sequence --patterns 231,321 --k 0 --n-max 7 --method gf"
    assert f"patfix {argv}\n# -> 1,0,1,1,2,3,5,8\n" in README
    assert main(argv.split()) == 0
    assert capsys.readouterr().out == "1,0,1,1,2,3,5,8\n"
