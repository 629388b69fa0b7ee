"""Every command answers every pinned fixture mutant exactly as pinned."""

import pytest

from mutants import FIXTURES, load_pins, mismatches

PINS = load_pins()


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.wx")))
def test_mutant_answers_match_their_pins(tmp_path, fixture):
    pins = [pin for pin in PINS if pin["fixture"] == fixture]
    assert pins
    bad = mismatches(pins, tmp_path)
    assert not bad, "\n".join(bad)
