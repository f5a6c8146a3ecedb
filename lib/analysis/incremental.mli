(** Streaming certification: the incremental CSR / Theorem-2 checker.

    Consumes trace events one at a time — operations as sites execute them,
    serialization events as the GTM admits them, commit/abort decisions,
    site and global declarations — and maintains the conflict index, the
    global CSR graph and the per-site [ser_k] ordering obligations online.
    Cycle detection is incremental (a Pearce–Kelly ordered-graph engine), so
    a violation surfaces at the exact event that closes the cycle, with the
    same concrete witness format as the batch {!Certifier}.

    Memory is O(active window), not O(run length): once a committed
    transaction's position is {e stable} — every earlier operation at each
    of its sites belongs to a decided transaction and no live predecessor
    remains — its conflict-index entries, graph node and serialization
    entries are garbage-collected and the transaction is appended to the
    rolling certificate prefix. The stability rule is safe because a stable
    transaction can never again acquire an {e incoming} edge, so no future
    cycle can pass through it (see DESIGN.md §13 for the argument).

    On clean prefixes the checker emits rolling {!checkpoint}s chained by a
    digest; with [retain_order] the embedded {!Certificate.t} values are
    independently re-checkable by {!Certificate.verify} against the event
    prefix materialized as a {!Trace.t}. *)

open Mdbs_model

type event =
  | Site of Types.sid * Types.protocol_kind option
      (** Declare a site (before its first operation). *)
  | Global of Types.tid * Types.sid list
      (** Declare a global transaction with its site-visit order. *)
  | Op of Types.sid * Types.tid * Op.action
      (** The next operation of the site's local schedule, in execution
          order. [Commit]/[Abort] double as the per-site decision. *)
  | Ser of Types.tid * Types.sid
      (** The next serialization event of [ser(S)]. *)
  | End of Types.tid
      (** The transaction finished: the feeder promises no further {e data}
          operations for it. With [strict_end], sites without a recorded
          terminal are closed out as not-committed-there; without it (the
          live feed, where a crash-compensation abort can trail the GTM's
          notion of completion), late [Commit]/[Abort] operations are still
          accepted and garbage collection waits for them. *)

type t

val create :
  ?strict_end:bool ->
  ?assume_committed:bool ->
  ?retain_order:bool ->
  ?gc_interval:int ->
  unit ->
  t
(** [strict_end] (default [true]): see {!event.End}. [assume_committed]
    (default [false]): engine-level feeds carry no site schedules, hence no
    commits; treat every declared global with a serialization event as
    committed for the Theorem-2 obligation, mirroring the batch certifier's
    fallback. [retain_order] (default [true]): retain the stable order
    prefix so {!certificate} can emit full certificates; switch off for
    soak runs to keep memory strictly O(active window). [gc_interval]
    (default [256]): events between stability sweeps. *)

val feed : t -> event -> unit
(** Consume one event. O(1) amortized; a no-op once a violation is found. *)

val feed_list : t -> event list -> unit

val violated : t -> bool

val verdict : t -> Certifier.counterexample option
(** The first violation found, with its concrete witness cycle. *)

(** {1 Rolling certificates} *)

type checkpoint = {
  cp_seq : int;
  cp_events : int;  (** Events consumed up to this checkpoint. *)
  cp_committed : int;
  cp_stable : int;  (** Committed transactions retired to the stable prefix. *)
  cp_live : int;  (** Transactions still in the active window. *)
  cp_evicted : Types.tid list;
      (** Stable-prefix extension since the previous checkpoint. *)
  cp_live_order : Types.tid list;
      (** Current serial order of the live committed transactions. *)
  cp_digest : string;
      (** Chain digest over (previous digest, evicted, live order). *)
  cp_cert : Certificate.t option;  (** With [retain_order] only. *)
  cp_cert_t2 : Certificate.t option;
}

val checkpoint : t -> checkpoint
(** Runs a stability sweep, then snapshots and extends the digest chain. *)

val verify_chain : checkpoint list -> (unit, string) result
(** Re-derive every digest from the genesis value and the per-checkpoint
    order deltas; [Error] pinpoints the first broken link. *)

val verify_link : ?prev:checkpoint -> checkpoint -> (unit, string) result
(** One link of {!verify_chain}: check [cp] against its predecessor
    ([~prev] omitted = anchor the first checkpoint at the genesis digest).
    This is the O(1)-state form the live feed uses to verify each
    checkpoint on arrival instead of retaining the whole chain. *)

val certificate : t -> Certificate.t option
(** Rolling CSR certificate (stable prefix ++ live order); [None] without
    [retain_order]. *)

val certificate_t2 : t -> Certificate.t option
(** Rolling Theorem-2 certificate; [None] without [retain_order] or when no
    serialization events were consumed. *)

(** {1 Introspection} *)

type stats = {
  events : int;
  live_txns : int;  (** Transaction records currently held — the window. *)
  peak_live_txns : int;
  stable_csr : int;
  stable_t2 : int;
  committed : int;
  live_edges : int;  (** Materialized conflict edges currently held. *)
  checkpoints : int;
}

val stats : t -> stats

val checkpoint_to_json : checkpoint -> Json.t

val pp_checkpoint : Format.formatter -> checkpoint -> unit

(** {1 Feeding from a captured trace} *)

val events_of_trace : Trace.t -> event list
(** Replay a captured trace as an event stream: declarations, then the site
    schedules interleaved round-robin (per-site order preserved), then the
    serialization events, then an [End] per transaction. *)

val of_trace : Trace.t -> t
(** [create] with the flags the batch certifier would use on [trace]
    ([strict_end], [assume_committed] iff the trace carries no commits),
    fed with [events_of_trace]. *)
