(** The GTM coordinator core: GTM1 and every per-global rule, free of I/O.

    Figure 1 has one global transaction manager. This module is its state
    machine, shared by the synchronous glue ({!Gtm}), the discrete-event
    simulator and the service runtime; each of them keeps only its
    transport. The two timed drivers also share its victim policy
    ({!tick}); [Gtm], which has no clock, keeps its quiescent-round rule.

    The core takes {e inputs} — {!admit}, {!reply}, {!kill}, {!tick},
    {!site_crash}, {!recover} — and hands every resulting {e effect} to
    the caller's [perform] function, in order: run a step at a site, roll
    a subtransaction back, resolve a participant, append a {!Gtm_log}
    record, finish a global. It never touches a site, a mailbox, a clock
    or a sink: time arrives as an argument. GTM2 is reached through the
    caller's [gtm2] function, which runs a batch of queue operations
    through the engine and returns the scheme's effects; {!pump} drives
    that loop.

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
    - site crashes and presumed-abort recovery from the log;
    - the victim policy for the cross-site deadlocks no site sees (§3),
      whose per-global state goes with the global at [Finish]. Its waiters
      are the globals blocked at a site and those whose serialization
      operation is parked in GTM2 (from when the core queues the [Ser]
      until GTM2 submits it, or acknowledges it for a dead global);
      the scheme names a parked operation's blockers through [create
      ?blockers]. *)

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

type reply = Mdbs_site.Server.answer = Done | Blocked | Refused of string
(** A site server's answer: the step executed; the site queued it, and a
    later [Done] completes it; the site aborted the subtransaction. *)

type t

(** The victim policy's defaults: {!tick} every 5 ms, a 20 ms wound window
    and a 250 ms deadline, per wait and without progress. *)
val default_tick_ms : float
val default_wound_ms : float
val default_deadline_ms : float

val create :
  ?wound_after_ms:float ->
  ?deadline_ms:float ->
  ?blockers:(Queue_op.t -> Types.gid list) ->
  atomic:bool ->
  protocol_of:(Types.sid -> Types.protocol_kind) ->
  gtm2:(Queue_op.t list -> Scheme.effect_ list) ->
  perform:(t -> effect_ -> unit) ->
  unit ->
  t
(** [~atomic]: two-phase commit. [protocol_of] gives each site's protocol,
    which fixes the serialization operation GTM1 routes through GTM2
    ({!Ser_fun}). [perform] carries out each effect as it is produced; it
    may feed a reply back synchronously. [blockers] (default: none) gives
    the globals a parked serialization operation waits for, as the GTM2
    scheme names them ({!Scheme.t}[.blockers]); {!tick} asks it only for
    an operation parked past the wound window. *)

(** {2 Inputs} *)

val admit : ?birth:int -> t -> Txn.t -> unit
(** Register a global and queue its [Init]. [birth] (default: the gid) is
    its wound-wait age: a retry passes its first attempt's gid. Raises
    [Invalid_argument] on a local or malformed transaction. *)

val pump : ?poll:(unit -> bool) -> t -> bool
(** Run GTM2 over the queued operations, handle its effects, call [poll]
    (default: nothing; return [true] if it made progress), then drive
    every global as far as it goes without a reply; repeat until nothing
    moves. Returns whether anything moved. *)

val reply : t -> Types.gid -> ?pc:int -> ?now:float -> reply -> Gtm1.step option
(** A site's answer for the global's current step: [~pc] is the step's
    direct answer; without it, the completion of a {!Blocked} step.
    [now] (default 0) stamps a {!Blocked} answer: the global's wait clock
    starts there, and a repeated [Blocked] keeps the first stamp. Returns
    the step it answered, or [None] for a stale reply (unknown global,
    another step, nothing outstanding). *)

val kill : t -> Types.gid -> string -> bool
(** A victim policy's verdict. The global is rolled back everywhere; a
    blocked step is completed at once, an in-flight one when its reply
    arrives. Refused ([false]) for an unknown or dead global, and under
    two-phase commit for one whose Commit is decided. Every other death —
    a refusal, a site crash, GTM2's abort — follows the same rule. *)

type victim = {
  victim : Types.gid;
  reason : string;  (** [wound], [stall-deadline] or [stall-timeout]. *)
  wounder : Types.gid option;  (** The older waiter, for a wound. *)
}

val tick : t -> now:float -> victim option
(** The victim policy, for a timed driver to call every
    {!default_tick_ms}: kill at most one global that is alive and not
    commit-decided, and return it. [wound] and [stall-deadline] are the
    verdicts of {!Wound} over the waiters: the globals blocked at a site
    and those whose serialization operation is parked in GTM2. A parked
    operation wounds the youngest strictly-younger blocker its scheme
    names that is itself blocked at a site, which breaks the cycle of an
    older global parked behind a younger one that is blocked at a site
    behind it. Otherwise, if nothing moved for the deadline,
    [stall-timeout] kills the youngest parked global, and no one when
    nothing is parked: a step out at a site will be answered. A parked
    operation's wait, like progress, is stamped with the [now] of the
    tick that first sees it. *)

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

val declaration : t -> Types.gid -> Types.sid -> (Item.t * bool) list
(** The global's access set at a site (item, write-like), which a site
    server predeclares before its [Begin] where the protocol needs it. *)
