"""Read one counter out of a metrics registry, the way ``/status`` does."""


def counter(metrics, name):
    """``name``'s value in ``metrics.snapshot()`` (0 if it never moved).

    Reading the snapshot registers nothing, so asking for a counter that
    no code path touched does not create it.
    """
    return metrics.snapshot()["counters"].get(name, 0)
