(** Experiments E9-E12: ablations beyond the paper's four schemes. E9 and
    E10 replay traces; E11 and E12 run on the discrete-event simulator
    ({!Mdbs_sim.Des}) at its default arrival rate.

    - E9: conservative delay (Schemes 0/3) vs optimistic abort (the
      non-conservative ticket method of [GRS91], §3's alternative): waits
      and aborts across a contention sweep. The paper's argument — global
      aborts are expensive, so conservative schemes are preferable in an
      MDBS — becomes measurable.
    - E10: Scheme 1 marking ablation: the paper's cycle-test marking vs
      marking everything (Scheme-0-like FIFO). Quantifies the concurrency
      bought by cycle detection in the TSG.
    - E11: local-protocol mix ablation: the same global workload over sites
      running each protocol homogeneously (2PL, TO, SGT+tickets, OCC,
      conservative 2PL, wait-die 2PL) and the heterogeneous mix — restarts,
      induced deadlocks and delays per substrate. *)

val conservative_vs_optimistic : ?seeds:int list -> unit -> Report.table
(** E9: waits vs aborts per scheme across rising contention (d_av). *)

val marking_ablation : ?seeds:int list -> unit -> Report.table
(** E10. *)

val protocol_mix : ?seed:int -> unit -> Report.table
(** E11. *)

val atomic_commit : ?seeds:int list -> unit -> Report.table
(** E12: one-phase vs two-phase commit over validation-prone (OCC-heavy)
    sites — half-commit anomalies eliminated, at what cost in waits and
    restarts. *)
