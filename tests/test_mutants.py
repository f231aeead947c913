"""The mutation harness in ``mutants.py`` still points at the source it mutates."""

import re
from pathlib import Path

import mutants

ROOT = Path(__file__).resolve().parents[1]


def test_each_mutant_text_occurs_once_and_its_tests_exist():
    sources = [p.read_text() for p in (ROOT / "src" / "onlinefdr").glob("*.py")]
    for m in mutants.MUTANTS:
        assert m.old != m.new, m.name
        assert sum(text.count(m.old) for text in sources) == 1, m.name
        assert (ROOT / "src" / "onlinefdr" / m.file).read_text().count(m.old) == 1, m.name
        for test in m.tests:
            path, _, name = test.partition("::")
            assert re.search(rf"^def {re.escape(name)}\(", (ROOT / path).read_text(), re.M), test
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
