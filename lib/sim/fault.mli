(** Declarative, seeded fault plans (the chaos layer's input language).

    The paper closes with "further work still remains on making the
    developed schemes fault-tolerant"; a fault plan describes {e which}
    faults a run must survive. Plans are consumed by {!Des}; event times
    are simulation milliseconds. Two ingredient kinds:

    - {e timed faults}: site crash/restart, GTM crash/restart, and
      stuck-site slowdowns, each pinned to a point on the run's time axis;
    - {e link faults}: per-message drop / duplicate / delay probabilities
      on the GTM-site links, drawn from a dedicated seeded stream so the
      fault pattern is a pure function of the plan.

    Identical plan + identical simulation seed => identical executions. *)

open Mdbs_model

type fault =
  | Site_crash of Types.sid
      (** Crash and immediately restart the site: volatile state dies,
          storage recovers from the WAL, prepared transactions survive in
          doubt ({!Mdbs_site.Local_dbms.crash}). *)
  | Gtm_crash
      (** Crash and restart the GTM: engine, scheme data structures and
          GTM1 progress die; recovery replays the durable
          {!Mdbs_core.Gtm_log}. *)
  | Slow_site of { sid : Types.sid; factor : float; duration : float }
      (** Multiply the site's service times by [factor] for [duration]
          time units — a stuck or overloaded site. *)

type link = {
  drop : float;  (** Per-message drop probability on GTM-site links. *)
  duplicate : float;  (** Per-message duplicate-delivery probability. *)
  delay : float;  (** Per-message probability of an extra delay. *)
  delay_ms : float;  (** The extra delay, in ms. *)
}

val no_link : link

type t = {
  events : (float * fault) list;  (** Sorted by time (ms). *)
  link : link;
  link_seed : int;  (** Seed of the link-fault coin-flip stream. *)
}

val none : t
(** The empty plan: no faults; the simulators behave exactly as without a
    fault layer. *)

val is_none : t -> bool

type mix = {
  site_crashes : int;  (** Site crash/restart events to place. *)
  gtm_crashes : int;  (** GTM crash/restart events to place. *)
  slowdowns : int;  (** Stuck-site episodes to place. *)
  slow_factor : float;
  mix_link : link;
}

val default_mix : mix

val realize : mix -> seed:int -> m:int -> horizon:float -> t
(** Place the mix's timed events pseudo-randomly (from [seed]) over
    [(0, horizon)] across [m] sites, and derive the link-fault seed. The
    result is a concrete, reproducible plan. *)

val parse_mix : string -> (mix, string) result
(** Parse the CLI spec: comma-separated [key=value] entries —
    [crash=N] (site crashes), [gtm=N], [slow=N\[:FACTOR\]],
    [drop=P], [dup=P], [delay=P\[:MS\]]. Example:
    ["crash=2,gtm=1,drop=0.05,dup=0.02"]. *)

val mix_to_string : mix -> string
(** Canonical spec string; [parse_mix] round-trips it. *)

val of_spec : string -> seed:int -> m:int -> horizon:float -> (t, string) result
(** [parse_mix] followed by {!realize}. *)

val pp : Format.formatter -> t -> unit
