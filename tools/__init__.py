"""Repository tooling: contract checkers run by CI and the tier-1 suite.

``tools.lint`` is the static-analysis framework (``python -m tools.lint``);
``tools.check_docs`` is the documentation checker (links, anchors,
doctests), run on its own by CI's docs job and by ``tests/test_docs.py``.
"""
