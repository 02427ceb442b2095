"""The README's library quick start, run as a doctest."""

import doctest
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_quick_start_runs():
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    (match,) = re.finditer(r"^```python\n(.*?)^```$", text, re.S | re.M)
    lineno = text.count("\n", 0, match.start(1))
    test = doctest.DocTestParser().get_doctest(
        match.group(1), {}, "README quick start", README, lineno
    )
    assert test.examples
    assert doctest.DocTestRunner().run(test).failed == 0
