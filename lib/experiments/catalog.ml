let tables =
  [
    ("E1", fun () -> Complexity.sweep_dav ());
    ("E2", fun () -> Complexity.sweep_n ());
    ("E5", fun () -> Concurrency.wait_table ());
    ("E5b", fun () -> Concurrency.incomparability_witnesses ());
    ("E5c", fun () -> Concurrency.scheme3_permits_all ());
    ("E6", fun () -> Minimality.run ());
    ("E7", fun () -> Endtoend.run ());
    ("E7b", fun () -> Endtoend.violation_hunt ());
    ("E9", fun () -> Tradeoff.conservative_vs_optimistic ());
    ("E10", fun () -> Tradeoff.marking_ablation ());
    ("E11", fun () -> Tradeoff.protocol_mix ());
    ("E12", fun () -> Tradeoff.atomic_commit ());
    ("E13", fun () -> Timing.scheme_comparison ());
    ("E13b", fun () -> Timing.latency_sweep ());
    ("E14", fun () -> Chaos.table ());
    ("E15", fun () -> Obswait.wait_table ());
  ]
