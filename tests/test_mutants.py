"""The mutation check in tests/mutants.py: its mutants apply to the engine
as it is, a mutant that changes nothing survives, and one whose old text is
gone is an error."""
import pytest

import mutants
from mutants import Mutant, MutantError

QUICK = ("tests/test_patterns.py::TestPatternType::test_lsf_reverses_word",)


@pytest.mark.parametrize("mutant", mutants.MUTANTS + mutants.EQUIVALENT,
                         ids=lambda m: m.name)
def test_every_old_text_occurs_once(mutant):
    text = (mutants.ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests and mutant.reason


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS + mutants.EQUIVALENT]
    assert len(set(names)) == len(names)


def test_an_identity_mutant_survives():
    same = "_VECTOR_MIN = 32"
    outcome = mutants.run(Mutant("identity", same, same, QUICK, "changes nothing"))
    assert outcome.killed is False


def test_a_missing_old_text_is_an_error():
    with pytest.raises(MutantError, match="occurs 0 times"):
        mutants.run(Mutant("missing", "no such text", "x", QUICK, "applies nowhere"))


def test_tests_that_do_not_run_are_an_error():
    gone = ("tests/test_patterns.py::NoSuchClass",)
    with pytest.raises(MutantError, match="pytest exited 4"):
        mutants.run(Mutant("no-tests", "_VECTOR_MIN = 32", "_VECTOR_MIN = 8", gone,
                           "names no test"))
