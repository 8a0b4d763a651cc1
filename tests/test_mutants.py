"""The mutation catalogue of `mutants.py` still fits the code and the tests.

No mutant runs here: `python tests/mutants.py` runs them.
"""

import pytest

from mutants import MUTANTS, ROOT


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    text = (ROOT / mutant.path).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_named_tests_are_defined(mutant):
    """Each id names a test file and a test function in it (and its class)."""
    assert mutant.tests
    for test_id in mutant.tests:
        path, *names = test_id.partition("[")[0].split("::")
        text = (ROOT / path).read_text()
        *classes, function = names
        assert f"def {function}(" in text, test_id
        assert all(f"class {name}" in text for name in classes), test_id
