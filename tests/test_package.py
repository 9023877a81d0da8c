"""The public names of the smnn package."""

import collections

import smnn


def test_every_export_resolves():
    assert [name for name in smnn.__all__ if not hasattr(smnn, name)] == []


def test_every_export_listed_once():
    counts = collections.Counter(smnn.__all__)
    assert [name for name, n in counts.items() if n > 1] == []
