(** Bounded wound-wait: the decision inside the coordinator core's victim
    policy ({!Coord.tick}), pure and separately testable.

    Killing the {e youngest blocked} global is correct for liveness but
    converts queueing into an abort storm: it is usually queued {e behind}
    the conflict. This module decides instead:

    - {b Wound (age priority):} once a blocked global has waited
      [wound_after_ms] on its own stall clock, it wounds the {e youngest
      strictly-younger} transaction that holds per-site state at the site it
      is blocked inside. Older transactions are never wounded by younger
      ones, so transaction age defines a total order on kills and no
      transaction can be wounded forever (its age only grows relative to the
      live population — retries inherit the birth of their first attempt).
      One wait wounds a logical transaction at most once: residency is only
      a guess at who blocks the waiter, and a waiter stuck behind an older
      transaction would otherwise wound the same victim's retries until
      their attempts ran out.

    - {b Bounded wait (liveness):} when some waiter is past [deadline_ms]
      and no wound applies — it is blocked behind an {e older} global or a
      local transaction the GTM cannot see — the {e youngest waiter past
      the deadline} is killed. Later arrivals queued behind it are spared:
      killing them frees nothing, and their retries would take their
      place. The set of waiters past the deadline shrinks on every tick
      the breach persists, so every wait stays bounded and
      deadlock-freedom does not depend on the conflict attribution
      (begun-at-site residency) being exact; and with two or more waiters
      past the deadline the oldest is never the victim of either rule.

    The caller ({!Coord.tick}, one decision per tick) keeps the
    no-progress safety valve behind both rules. *)

open Mdbs_model

type waiter = {
  w_gid : Types.gid;
  w_birth : int;  (** Age stamp: the gid of the logical txn's first attempt. *)
  w_site : Types.sid;  (** The site the transaction is blocked inside. *)
  w_since : float;  (** When the site answered [Waiting] (per-txn clock). *)
  w_wounded : int list;
      (** Births of the transactions this waiter already wounded while
          blocked since [w_since]. *)
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
          wounder's blocked site. *)
  | Timeout of Types.gid
      (** Hard-deadline kill: some waiter breached [deadline_ms] with no
          woundable conflict anywhere; the victim is the youngest waiter
          past the deadline. *)
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
