"""Helpers shared by the test modules."""

import threading
import tracemalloc

import pytest


def _traced_peak(call):
    """Run `call()` on a fresh thread under tracemalloc and return its
    result, the peak bytes traced during the call and the bytes still
    held when it returned (its result and anything else it kept).  A
    fresh thread starts without per-thread scratch buffers, so their
    allocation counts toward both."""
    out = {}

    def run():
        tracemalloc.start()
        try:
            out["result"] = call()
            out["held"], out["peak"] = tracemalloc.get_traced_memory()
        except BaseException as exc:  # re-raised in the calling thread
            out["error"] = exc
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=300)
    assert not thread.is_alive(), "traced call did not finish"
    if "error" in out:
        raise out["error"]
    return out["result"], out["peak"], out["held"]


@pytest.fixture
def traced_peak():
    """`traced_peak(call)` -> (result, peak bytes, held bytes); see
    `_traced_peak`."""
    return _traced_peak
