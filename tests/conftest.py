"""Shared fixtures for the test suite."""

import pytest

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
def tiny_digix():
    """A very small DIGIX-like dataset shared by the slower integration tests."""
    return generate_digix_like(DigixConfig(
        n_tasks=2,
        n_users_per_task=6,
        ads_rows_per_user=(2, 3),
        feeds_rows_per_user=(2, 3),
        seed=11,
    ))
