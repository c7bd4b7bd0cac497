import tracemalloc

import pytest

_REPORT_LINES = []


@pytest.fixture
def acceptance_report():
    """Record one PASS/FAIL line per acceptance check and enforce it."""

    def record(tag: str, ok: bool, detail: str) -> None:
        line = f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}"
        print(line)
        _REPORT_LINES.append(line)
        assert ok, line

    return record


def _peak_bytes(fn) -> int:
    """Peak bytes allocated while ``fn()`` runs.

    NumPy reports its array buffers to tracemalloc, so the peak counts every
    temporary array, the returned one included.
    """
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_bytes():
    """``peak_bytes(fn)``: the extra memory ``fn()`` needs at its peak."""
    return _peak_bytes


@pytest.fixture
def sketch_sizes(monkeypatch):
    """The column count of every sketch `select_landmarks` builds."""
    import kreinkit.landmarks

    sizes = []
    original = kreinkit.landmarks.build_sketch

    def spy(source, m0, *args, **kwargs):
        sizes.append(m0)
        return original(source, m0, *args, **kwargs)

    monkeypatch.setattr(kreinkit.landmarks, "build_sketch", spy)
    return sizes


def pytest_terminal_summary(terminalreporter):
    if _REPORT_LINES:
        terminalreporter.section("acceptance report")
        for line in _REPORT_LINES:
            terminalreporter.write_line(line)
