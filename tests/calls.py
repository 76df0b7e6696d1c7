"""A log of calls made through a module's globals, for the tests.

``perfbench/tests/test_tracer.py`` counts some of triwalk's calls by
rebinding the names in each module's globals, so those call shapes are part
of the benchmark. ``record_calls`` rebinds names the same way with
``monkeypatch``, so that the tier-1 tests guard the same shapes.
"""

from __future__ import annotations


def record_calls(monkeypatch, module, *names: str) -> list:
    """Rebind each named function of ``module``; return the log of its calls.

    Each entry is ``(name, parent, result)``, in the order the calls began:
    ``parent`` is the index of the logged call that this one ran inside, or
    None for a call from outside every logged one.
    """
    log: list = []
    stack: list[int] = []

    def logged(name, fn):
        def call(*args, **kwargs):
            index = len(log)
            log.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
            log[index] = (name, parent, result)
            return result

        return call

    for name in names:
        monkeypatch.setattr(module, name, logged(name, getattr(module, name)))
    return log
