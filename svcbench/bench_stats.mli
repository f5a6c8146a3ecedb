(** Measurement rules of the service benchmark, kept free of the runtime
    so they can be unit-tested: which latency percentiles a sample
    supports, latency from due time, and the measured-window accounting.
    Percentiles are {!Mdbs_util.Stats.percentile}'s nearest rank. *)

val tail_percentile : float list -> (float * float) option
(** The highest of 99.99, 99.9, 99, 95, 90, 75, 50 with at least ten
    samples beyond its rank, with its value; [None] below twenty
    samples. *)

val latency_ms : due:float -> settled:float -> float
(** A logical transaction's latency runs from when it was {e due}, not
    from when the driver got round to submitting it, so a stall that
    delays later submissions is charged to them. Times in seconds. *)

type logical = {
  due : float;  (** Seconds. *)
  settled : float option;  (** Final outcome time; [None] = never settled. *)
  committed : bool;
}

type window = {
  due_in : int;  (** Logical transactions first due inside the window. *)
  committed : int;
  unsettled : int;  (** No final outcome by shutdown. *)
  latencies_ms : float list;  (** Committed ones only. *)
}

val account : start:float -> stop:float -> logical list -> window
(** Only transactions with [start <= due < stop] count, wherever they
    settle. The rest of [due_in] — [due_in - committed] — failed. *)
