"""The backoff rules are inline in engine's drivers (and stated naively in
tests/reference.py).  perfbench/tracer.py patches these names until a change
to perfbench/ alone stops it; nothing calls them."""


def _gone(*args, **kwargs):
    raise NotImplementedError("the backoff rules are inline in engine.py")


next_backoff_after_success = next_backoff_after_collision = _gone
rejoin_backoff = _gone
