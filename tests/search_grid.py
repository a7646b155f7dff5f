"""The grid of ``search`` invocations whose ``--out`` bytes and stdout
the search goldens pin (``test_search_golden`` and
``test_search_stdout_golden``).

It covers T and L modes with m = 1..4, sharded and multi-process runs,
enumeration budgets below, at and just past the 1024-candidate chunk
boundary (exit 3), exact-check budgets of 3 and 5, and ``--problem24``.
"""


def _spec(mode, m, n, bound, *flags):
    return ["search", "--mode", mode, "--m", str(m), "--n", str(n), "--bound", str(bound),
            *map(str, flags)]


GRID = [
    # complete sweeps, m = 1..4
    _spec("T", 1, 1, 4), _spec("T", 1, 2, 3), _spec("T", 2, 1, 4), _spec("T", 2, 2, 3),
    _spec("T", 2, 3, 2), _spec("T", 3, 1, 3), _spec("T", 3, 2, 2), _spec("T", 4, 1, 2),
    _spec("T", 4, 1, 3),
    _spec("L", 1, 2, 4), _spec("L", 2, 1, 6), _spec("L", 2, 2, 4), _spec("L", 3, 1, 5),
    _spec("L", 3, 2, 4), _spec("L", 4, 1, 4), _spec("L", 4, 2, 3),
    # shards, and shards in worker processes
    _spec("T", 2, 2, 3, "--shards", 3), _spec("T", 4, 1, 3, "--shards", 3),
    _spec("L", 3, 2, 4, "--shards", 3),
    _spec("T", 2, 1, 4, "--shards", 2, "--workers", 2),
    _spec("L", 3, 2, 4, "--shards", 2, "--workers", 2),
    # enumeration budgets around the 1024-candidate chunk (T m=2 n=2 b=4 has 2628)
    *(_spec("T", 2, 2, 4, "--enum-budget", b)
      for b in (50, 700, 1023, 1024, 1025, 2048, 2627, 2628)),
    *(_spec("T", 2, 2, 4, "--shards", 3, "--enum-budget", b) for b in (1025, 3072, 3075)),
    *(_spec("L", 3, 2, 4, "--enum-budget", b) for b in (1024, 1025)),
    # exact-check budgets
    *(_spec("T", 2, 2, 4, "--budget", b) for b in (3, 5)),
    *(_spec("L", 3, 2, 4, "--budget", b) for b in (3, 5)),
    _spec("T", 2, 2, 4, "--shards", 3, "--budget", 5),
    _spec("T", 2, 2, 4, "--enum-budget", 1025, "--budget", 5),
    # signature-sum identity triples
    *(["search", "--problem24", "--n", str(n), "--bound", str(b)]
      for n, b in ((1, 5), (2, 4), (3, 4))),
]
