"""Out-of-core tiered memory — device-budget sweep (DESIGN.md §7).

Reproduced shape: serving a dataset from a device pool smaller than the
dataset is a pure *performance* trade — at every cap (100% down to 10% of
the dataset's payload bytes) the tiered index's range and kNN answers are
identical to the fully-resident GTS.
What degrades is the cost: the pager's hit rate falls and the attributed
host→device transfer time (``ExecutionStats.transfer_seconds["pager-h2d"]``)
rises monotonically as the cap shrinks, which is exactly the memory-
hierarchy behaviour Faiss documents for billion-scale GPU search.  The
misses of one gather share H2D transactions, so every cap charges at most
one transaction per miss, and the tightest cap strictly fewer.
"""

from __future__ import annotations

from repro.tier.experiment import experiment_memory_tiering

from .conftest import BENCH_SCALE, attach, ok_rows, run_once

CAPS = (1.0, 0.5, 0.25, 0.1)


def test_memory_tiering(benchmark):
    result = run_once(
        benchmark,
        experiment_memory_tiering,
        cap_fractions=CAPS,
        scale=BENCH_SCALE,
    )
    attach(benchmark, result)

    rows = ok_rows(result)
    assert len(rows) == len(result.rows), "some tiering cells failed"

    # exactness at every cap — tiering never changes answers
    assert all(row["correct"] for row in rows)
    # the acceptance cell: 25% cap, answers identical to fully resident
    quarter = [row for row in rows if row["cap_fraction"] == 0.25]
    assert quarter and all(row["correct"] for row in quarter)

    by_cap = {row["cap_fraction"]: row for row in rows if row["tiered"]}
    assert set(by_cap) == set(CAPS)
    # hit rate decays and attributed H2D transfer time grows as the
    # device pool shrinks
    hit_rates = [by_cap[c]["hit_rate"] for c in sorted(CAPS, reverse=True)]
    assert hit_rates == sorted(hit_rates, reverse=True), hit_rates
    h2d = [by_cap[c]["h2d_seconds"] for c in sorted(CAPS, reverse=True)]
    assert h2d == sorted(h2d), h2d
    # paying for the paging: tight caps are slower than resident
    assert by_cap[min(CAPS)]["knn_slowdown"] > 1.0
    # the pool budget is respected (per-pool high-water mark)
    assert all(row["pager_peak_bytes"] <= row["budget_bytes"] for row in by_cap.values())
    # demand faults are charged in co-resident waves: never more H2D
    # transactions than misses, and strictly fewer once the pool is
    # tight enough that gathers miss several blocks
    assert all(row["h2d_transactions"] <= row["misses"] for row in by_cap.values())
    tight = by_cap[min(CAPS)]
    assert tight["h2d_transactions"] < tight["misses"], tight
