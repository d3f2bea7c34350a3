import pathlib
import weakref
from collections import Counter

import pytest

import sp4q.algebras

# one line per acceptance criterion, echoed into the terminal summary
ACCEPTANCE_RESULTS: list[str] = []


@pytest.fixture(scope="session")
def golden_dir() -> pathlib.Path:
    return pathlib.Path(__file__).resolve().parents[1] / "goldens"


@pytest.fixture
def fresh_builds(monkeypatch) -> Counter:
    """An empty table of live generator sets for the test, and a Counter
    of the sets each family's builder constructs while it runs."""
    monkeypatch.setattr(sp4q.algebras, "_LIVE", weakref.WeakValueDictionary())
    made: Counter = Counter()
    for family, builder in list(sp4q.algebras._BUILDERS.items()):
        def counted(space, family=family, builder=builder):
            made[family] += 1
            return builder(space)

        monkeypatch.setitem(sp4q.algebras._BUILDERS, family, counted)
    return made


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
