(** Experiment E7: the full MDBS under mixed load, on the discrete-event
    simulator ({!Mdbs_sim.Des}).

    Heterogeneous sites (2PL, TO, SGT+ticket, OCC), local transactions
    invisible to the GTM, global transactions under each GTM2 scheme and the
    no-control baseline. Reports commits, restarts, forced deadlock
    victims, WAIT insertions, scheme steps, the two audits and the static
    analysis of the captured trace. Schemes 0-3 must pass both audits; the
    baseline is expected to fail at sufficient contention. *)

val run : ?config:Mdbs_sim.Des.config -> unit -> Report.table

val violation_hunt : ?attempts:int -> unit -> Report.table
(** Searches seeds until the no-control baseline's committed local
    schedules are not globally conflict-serializable (CSR = NO),
    demonstrating that the GTM2 machinery is doing real work. *)
