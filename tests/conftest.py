import pytest

import p2l.estimator


@pytest.fixture
def estimator_passes(monkeypatch):
    """How often p2l.estimator checks a candidate set and measures its
    distances, counted from the fixture's setup on."""
    calls = {"check_candidates": 0, "distances": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(p2l.estimator, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(p2l.estimator, name, counted)
    return calls
