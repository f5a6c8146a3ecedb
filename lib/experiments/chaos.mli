(** Experiment E14: the chaos harness — certify every faulty run.

    The paper's closing sentence leaves fault tolerance as further work.
    This harness measures what the repository's answer delivers: it sweeps
    seeded fault plans (site crashes, GTM crashes, lossy links, stuck
    sites) over the schemes under two-phase commit, and for {e every} run
    checks three end-to-end obligations:

    - {e certified}: the committed projection of the observed local
      schedules passes the static certifier (global CSR + Theorem 2) —
      faults may abort transactions but never let a non-serializable
      history commit;
    - {e atomic}: no global transaction committed at one site and aborted
      at another, every committed one committed at all of its sites, and
      no global subtransaction is still active at a site when the run
      ends;
    - {e wal_consistent}: each durable site's final storage equals the
      state its write-ahead log predicts — crash recovery lost nothing.

    Identical plan + seed => identical outcome, so every row is
    reproducible from the printed spec. *)

type checks = {
  certified : bool;
  atomic : bool;
  wal_consistent : bool;
}

val ok : checks -> bool

val half_committed : Mdbs_sim.Des.run -> Mdbs_model.Txn.t -> bool
(** The attempt committed at some site and yet was rolled back at another
    or never committed at one of its sites: the atomicity anomaly two-phase
    commit closes. [atomic] below fails on it; E12 counts it. *)

val check_run : ?profile:Mdbs_obs.Profile.t -> Mdbs_sim.Des.run -> checks
(** The three obligations, evaluated on a finished simulation. [~profile]
    self-times the certifier ([chaos.certify]) and the WAL audit
    ([chaos.wal_check]) in wall-clock CPU time. *)

type outcome = {
  kind : Mdbs_core.Registry.kind;
  seed : int;
  spec : string;  (** Canonical fault-mix spec ({!Mdbs_sim.Fault.mix_to_string}). *)
  result : Mdbs_sim.Des.result;
  checks : checks;
}

val base_config : Mdbs_sim.Des.config
(** Small, fast chaos workload: 3 durable sites, 12 global transactions,
    two-phase commit on. *)

val config_for :
  ?base:Mdbs_sim.Des.config -> mix:Mdbs_sim.Fault.mix -> seed:int -> unit ->
  Mdbs_sim.Des.config
(** [base] with the given seed and the mix realized into a concrete fault
    plan over the workload's sites. *)

val run_one :
  ?base:Mdbs_sim.Des.config -> ?profile:Mdbs_obs.Profile.t ->
  ?data_dir:string ->
  mix:Mdbs_sim.Fault.mix -> seed:int ->
  Mdbs_core.Registry.kind -> outcome
(** [?data_dir] switches every site to the persistent LSM backend, rooted
    at a per-run subdirectory named from (scheme, mix, seed) — so a sweep's
    runs never share state. Sites are closed after the checks. *)

val default_mixes : Mdbs_sim.Fault.mix list
(** Four mixes that together exercise every fault kind: site crashes, GTM
    crashes, drops, duplicates, delays and slowdowns. *)

val sweep :
  ?base:Mdbs_sim.Des.config ->
  ?data_dir:string ->
  ?kinds:Mdbs_core.Registry.kind list ->
  ?mixes:Mdbs_sim.Fault.mix list ->
  ?seeds:int list ->
  unit -> outcome list
(** Every (kind, mix, seed) combination; defaults give 4 schemes x 4
    mixes x 13 seeds = 208 faulty runs. *)

val table : ?outcomes:outcome list -> unit -> Report.table
(** E14: per (scheme, mix) aggregates — survival, fault counters and
    check violations (expected all zero). Runs the default {!sweep} when
    [outcomes] is not supplied. *)

val outcome_to_json : outcome -> Mdbs_analysis.Json.t
