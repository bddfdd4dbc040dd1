"""Benchmark E11: merging multiple summaries (Theorem 11).

Runs the partition / summarise / merge pipeline over 2-16 sites with both
partitioning strategies and both merge modes.  Asserted claims:

* the default merge (replaying every stored counter) satisfies the merged
  (3A, A+B) k-tail guarantee in every configuration;
* the merged bound is within the constant factor Theorem 11 predicts of the
  single-summary bound (at most 3 * (m - k) / (m - 2k));
* the literal top-k merge mode (the paper's written construction) is
  reported alongside -- on mildly skewed data it can exceed the bound for
  items ranked just outside the top k (see :mod:`repro.core.merging`).
"""

from repro.experiments.merge import format_merge, run_merge


def test_merge_sweep(once):
    rows = once(run_merge)
    print("\n" + format_merge(rows))

    default_rows = [row for row in rows if row.merge_mode == "all_counters"]
    assert default_rows
    assert all(row.within_merged_bound for row in default_rows)

    # Theorem 11's promise: distribution costs at most a constant factor.
    for row in default_rows:
        ratio = row.merged_bound / row.single_summary_bound
        assert ratio <= 3.0 * (row.num_counters - row.k) / (row.num_counters - 2 * row.k) + 1e-9

    # The literal top-k merge is also measured; report how often it stays
    # within the bound without asserting (see repro.core.merging).
    top_k_rows = [row for row in rows if row.merge_mode == "top_k"]
    within = sum(row.within_merged_bound for row in top_k_rows)
    print(f"\ntop_k merge mode within bound: {within}/{len(top_k_rows)} configurations")
