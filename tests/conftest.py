import sys

import pytest


def clear_memos():
    """Clear every memo (every attribute with a cache_clear) of every loaded
    fanog2 module."""
    for name, module in list(sys.modules.items()):
        if name.startswith("fanog2."):
            for memo in vars(module).values():
                if hasattr(memo, "cache_clear"):
                    memo.cache_clear()


@pytest.fixture
def fresh_memos(monkeypatch):
    """Clear every memo before and after a test that patches what the memos
    read; the test's patches are undone first, so no value computed under
    one outlives it.  The fixture's value is clear_memos, for a test that
    changes a patch midway."""
    clear_memos()
    yield clear_memos
    monkeypatch.undo()
    clear_memos()
