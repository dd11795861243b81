"""Peak memory of one call, by tracemalloc, for the memory tests."""

import gc
import tracemalloc


def traced_peak(fn, *args, **kwargs):
    """(result, peak) of fn(*args, **kwargs): peak is the most bytes traced
    at any time during the call above those traced when it began. Garbage is
    collected first, so cyclic garbage of earlier code that the collector
    frees during the call cannot lower the peak. Tracing started here is
    stopped here; tracing already on is left on."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    return result, peak
