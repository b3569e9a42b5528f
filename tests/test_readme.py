"""The README's Python quick tour runs as a doctest, outputs byte for byte.

The whole file is parsed, as ``python -m doctest README.md`` does, so an
expected output that runs into the closing code fence fails here too.
"""

from __future__ import annotations

import doctest
import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs():
    parser = doctest.DocTestParser()
    test = parser.get_doctest(README.read_text(), {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False) == (0, 8)
