(** Bounded wound-wait: the decision inside the coordinator core's victim
    policy ({!Coord.tick}), pure and separately testable.

    Killing the {e youngest blocked} global is correct for liveness but
    converts queueing into an abort storm: it is usually queued {e behind}
    the conflict. This module decides instead:

    - {b Wound (age priority):} once a waiter has waited [wound_after_ms]
      on its own stall clock, it wounds the {e youngest strictly-younger}
      transaction it waits for. A global blocked inside a site waits for
      the transactions that hold per-site state there. A serialization
      operation parked in GTM2's WAIT set waits for the blockers its
      scheme names ({!Scheme.t}[.blockers]); {!Coord.tick} passes those
      that are themselves blocked at a site. That second kind closes the
      cycle §3 warns of, which no single site sees: an older global parked
      in GTM2 behind a younger one that is blocked at a site behind the
      older one's locks. The younger may not wound the older, and without
      parked waiters nobody would break the cycle before the deadline.
      Older transactions are never wounded by younger ones, so transaction
      age defines a total order on kills and no transaction can be wounded
      forever (its age only grows relative to the live population —
      retries inherit the birth of their first attempt). One wait wounds a
      logical transaction at most once: residency is only a guess at who
      blocks a site waiter, and a waiter stuck behind an older transaction
      would otherwise wound the same victim's retries until their attempts
      ran out.

    - {b Bounded wait (liveness):} when some site waiter is past
      [deadline_ms] and no wound applies — it is blocked behind an
      {e older} global or a local transaction the GTM cannot see — the
      {e youngest site waiter past the deadline} is killed. Later arrivals
      queued behind it are spared: killing them frees nothing, and their
      retries would take their place. The set of waiters past the deadline
      shrinks on every tick the breach persists, so every wait stays
      bounded and deadlock-freedom does not depend on the conflict
      attribution (begun-at-site residency) being exact; and with two or
      more waiters past the deadline the oldest is never the victim of
      either rule. A parked waiter is never this rule's victim: GTM2 may
      delay an operation for long behind a busy site without any
      deadlock.

    The caller ({!Coord.tick}, one decision per tick) keeps the
    no-progress safety valve behind both rules. *)

open Mdbs_model

(** Where a waiter waits. *)
type place =
  | Site of Types.sid
      (** Blocked inside this site: it waits for the residents there. *)
  | Gtm2 of Types.gid list Lazy.t
      (** Its serialization operation is parked in GTM2's WAIT set behind
          these globals. Forced only for a waiter past its wound window, so
          a caller may take a lock to compute it. *)

type waiter = {
  w_gid : Types.gid;
  w_birth : int;  (** Age stamp: the gid of the logical txn's first attempt. *)
  w_at : place;
  w_since : float;
      (** When the wait began: the site's [Blocked] answer, or the first
          tick that saw the operation parked (per-txn clock). *)
  w_wounded : int list;
      (** Births of the transactions this waiter already wounded while
          waiting since [w_since]. *)
}

type resident = {
  r_gid : Types.gid;
  r_birth : int;
  r_sites : Types.sid list;
      (** Sites where the transaction holds per-site state (begun, not yet
          terminated) — the sites at which it can block others. *)
}

val older : int -> Types.gid -> int -> Types.gid -> bool
(** [older b1 g1 b2 g2]: does (birth [b1], gid [g1]) strictly precede
    (birth [b2], gid [g2]) in the age order? Smaller birth wins; gid breaks
    ties, so the order is total. *)

val quiet : now:float -> wound_after_ms:float -> waiters:waiter list -> bool
(** Fast per-tick pre-check: true when {e no} waiter's wound window has
    elapsed yet, i.e. {!decide} cannot return [Wound] and (since
    [deadline_ms >= wound_after_ms]) cannot return [Timeout] either. Only
    when [quiet] is false does the caller pay for the resident sweep and
    the full {!decide}. One O(waiters) scan, no allocation, no sort. *)

type decision =
  | Wound of { wounder : Types.gid; victim : Types.gid }
      (** [victim] is strictly younger than [wounder] and resident at the
          wounder's blocked site, or one of its parked operation's
          blockers. *)
  | Timeout of Types.gid
      (** Hard-deadline kill: some site waiter breached [deadline_ms] with
          no woundable conflict anywhere; the victim is the youngest site
          waiter past the deadline. *)
  | No_kill

val decide :
  now:float ->
  wound_after_ms:float ->
  deadline_ms:float ->
  waiters:waiter list ->
  residents:resident list ->
  decision
(** At most one victim per call; the caller re-evaluates after the kill's
    effects land (killing one member may unblock the rest of a clique). *)
