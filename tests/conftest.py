"""Shared fixtures for the test suite."""

from contextlib import contextmanager

import pytest

import repro.llm.compiled
from repro.datasets.digix import DigixConfig, generate_digix_like
from repro.datasets.toy import fig2_single_table, fig4_child_tables, fig11_membership_and_visits
from repro.frame.table import Table


@pytest.fixture
def toy_table():
    """The Fig. 2 single table with ambiguous numerical labels."""
    return fig2_single_table()


@pytest.fixture
def toy_child_tables():
    """The Fig. 4 (meals, viewing, subject) child tables."""
    return fig4_child_tables()


@pytest.fixture
def membership_tables():
    """The Fig. 11 (visits, expected parent, subject) tables."""
    return fig11_membership_and_visits()


@pytest.fixture
def small_table():
    """A small mixed-dtype table used across the frame tests."""
    return Table({
        "name": ["Grace", "Yin", "Anson", "Maya"],
        "age": [25, 31, 25, 40],
        "score": [0.5, 0.75, 0.5, 1.25],
        "city": ["Austin", "Boston", "Austin", "Denver"],
    })


@pytest.fixture(scope="session")
def unpackable_vocabulary():
    """Context-manager factory: inside ``unpackable_vocabulary(engine)`` with
    ``engine="object"`` (the default) no vocabulary packs into int64 keys;
    with ``"compiled"`` nothing changes.

    An unpackable vocabulary is the input class that needs the fallbacks:
    fine-tuning runs the object trainer (``FineTuneResult.engine ==
    "object"``), bundles load through the dict-table rebuild, and the
    compiled backbone looks contexts up through its tuple index.
    Session-scoped so module fixtures and hypothesis tests can use it too.
    """
    @contextmanager
    def unpackable(engine="object"):
        with pytest.MonkeyPatch.context() as patch:
            if engine == "object":
                patch.setattr(repro.llm.compiled, "_MAX_PACKED_KEY", 2)
            yield
    return unpackable


@pytest.fixture(scope="session")
def tiny_digix():
    """A very small DIGIX-like dataset shared by the slower integration tests."""
    return generate_digix_like(DigixConfig(
        n_tasks=2,
        n_users_per_task=6,
        ads_rows_per_user=(2, 3),
        feeds_rows_per_user=(2, 3),
        seed=11,
    ))
