(** The GTM coordinator core: GTM1 and every per-global rule, free of I/O.

    Figure 1 has one global transaction manager. This module is its state
    machine, shared by the synchronous glue ({!Gtm}), the discrete-event
    simulator and the service runtime; each of them keeps only its
    transport and its victim policy.

    The core takes {e inputs} — {!admit}, {!reply}, {!kill},
    {!site_crash}, {!recover} — and hands every resulting {e effect} to
    the caller's [perform] function, in order: run a step at a site, roll
    a subtransaction back, resolve a participant, append a {!Gtm_log}
    record, finish a global. It never touches a site, a mailbox, a clock
    or a sink. GTM2 is reached through the caller's [gtm2] function, which
    runs a batch of queue operations through the engine and returns the
    scheme's effects; {!pump} drives that loop.

    The rules it owns:
    - admission, and the dispatch loop over {!Gtm1.next};
    - GTM2's [Submit_ser]/[Forward_ack]/[Abort_global] effects; a dead
      global's serialization operations are acknowledged without reaching
      a site, so the scheme's data structures drain;
    - site replies, matched by program counter so stale or duplicated
      replies are dropped;
    - the kill sweep: a dead global is rolled back at every site where its
      subtransaction is active, at most once per (global, site); a step
      that executed after its global died is rolled back where it ran,
      unless it was that site's Commit;
    - the decision record: a global's Commit is decided when its first
      Commit leaves, its Abort when it dies. Under two-phase commit a
      decided Commit is final and no kill takes it back;
    - [Fin] and the final outcome;
    - site crashes and presumed-abort recovery from the log. *)

open Mdbs_model

type outcome = Committed | Aborted of string

type effect_ =
  | Run of {
      gid : Types.gid;
      pc : int;  (** The step's program counter, echoed by {!reply}. *)
      site : Types.sid;
      action : Op.action;
      ser : bool;  (** A serialization operation GTM2 released. *)
    }  (** Execute one step at a site; answer with {!reply}. *)
  | Rollback of Types.gid * Types.sid
      (** Abort the global's subtransaction at the site. No reply. *)
  | Resolve of Types.gid * Types.sid * Gtm_log.decision
      (** Recovery: bring the participant at the site, if it is still
          live there, to the logged decision. No reply. *)
  | Log of Gtm_log.record  (** Append to the durable log. *)
  | Finish of { gid : Types.gid; outcome : outcome; recovered : bool }
      (** The global is resolved and forgotten. [recovered]: resolved by
          {!recover}, not by its own program. *)

type reply =
  | Done  (** The step executed. *)
  | Blocked  (** The site queued it; a later [Done] completes it. *)
  | Refused of string  (** The site aborted the subtransaction. *)

type t

val create :
  atomic:bool ->
  protocol_of:(Types.sid -> Types.protocol_kind) ->
  gtm2:(Queue_op.t list -> Scheme.effect_ list) ->
  perform:(t -> effect_ -> unit) ->
  unit ->
  t
(** [~atomic]: two-phase commit. [protocol_of] gives each site's protocol,
    which fixes the serialization operation GTM1 routes through GTM2
    ({!Ser_fun}). [perform] carries out each effect as it is produced; it
    may feed a reply back synchronously. *)

(** {2 Inputs} *)

val admit : t -> Txn.t -> unit
(** Register a global and queue its [Init]. Raises [Invalid_argument] on a
    local or malformed transaction. *)

val pump : ?poll:(unit -> bool) -> t -> bool
(** Run GTM2 over the queued operations, handle its effects, call [poll]
    (default: nothing; return [true] if it made progress), then drive
    every global as far as it goes without a reply; repeat until nothing
    moves. Returns whether anything moved. *)

val reply : t -> Types.gid -> ?pc:int -> reply -> Gtm1.step option
(** A site's answer for the global's current step: [~pc] is the step's
    direct answer; without it, the completion of a {!Blocked} step.
    Returns the step it answered, or [None] for a stale reply (unknown
    global, another step, nothing outstanding). *)

val kill : t -> Types.gid -> string -> bool
(** A victim policy's verdict. The global is rolled back everywhere; a
    blocked step is completed at once, an in-flight one when its reply
    arrives. Refused ([false]) for an unknown or dead global, and under
    two-phase commit for one whose Commit is decided. Every other death —
    a refusal, a site crash, GTM2's abort — follows the same rule. *)

val site_crash : t -> Types.sid -> in_doubt:Types.gid list -> unit
(** The site restarted: kill every global that had begun there, or whose
    current step was out there. In-doubt participants survive: the
    global's own Commit or rollback still reaches them. *)

val recover : t -> Gtm_log.t -> unit
(** Presumed-abort recovery, on a fresh core: every global the log shows
    unfinished is resolved at each of its sites — a logged Commit is
    completed, anything else (an undecided global gets its Abort logged
    first) rolled back — then logged [Finished] and finished with
    [recovered = true]. *)

(** {2 Queries} *)

val is_known : t -> Types.gid -> bool
(** Admitted and not yet finished. *)

val is_dead : t -> Types.gid -> bool

val commit_decided : t -> Types.gid -> bool

val death_reason : t -> Types.gid -> string option

val active : t -> Types.gid list
(** Known globals, ascending. *)

val current_step : t -> Types.gid -> Gtm1.step option

val awaiting : t -> Types.gid -> int option
(** The program counter of the step whose reply the core is waiting for. *)

val blocked : t -> (Types.gid * Types.sid) list
(** Globals whose current step a site answered {!Blocked}, ascending. *)

val blocked_count : t -> int

val begun_sites : t -> Types.gid -> Types.sid list

val declaration :
  t -> Types.gid -> Types.sid -> (Item.t * Mdbs_lcc.Cc_types.mode) list
(** The global's lock set at a site, for conservative-2PL predeclaration
    before its [Begin]. *)
