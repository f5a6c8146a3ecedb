(* The benchmark's only load thread. It generates every transaction itself
   from seeded substreams, submits through the runtime's public calls,
   polls the returned promises, and retries under the program's own
   policy — so the runtime sees exactly what a set of real clients would
   send, from one thread that cannot compete with itself. *)

module Runtime = Mdbs_svc.Runtime
module Promise = Mdbs_svc.Promise
module Outcome = Mdbs_svc.Outcome
module Retry = Mdbs_svc.Retry
module Workload = Mdbs_sim.Workload
module Txn = Mdbs_model.Txn
module Types = Mdbs_model.Types
module Rng = Mdbs_util.Rng
module Sink = Mdbs_obs.Sink

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Sleep requested between two sweeps of the outstanding promises, drawn
   uniformly below this. The kernel adds ~55 us of timer slack, so sweeps
   come every 55-100 us; a fixed sleep would phase-lock the sweeps to the
   submissions and quantise sub-millisecond latencies into two modes one
   sweep apart. *)
let poll_jitter_s = 45e-6

type plan = {
  load : Workloads.load;
  wl : Workload.config;
  local_fraction : float;
  retry : Retry.policy;
  warmup_s : float;
  window_s : float;
  limit : int option;
      (** Generate exactly this many logical transactions and count them
          all (the capture run); [None] = the timed window decides. *)
  drain_s : float;  (** Grace for outstanding transactions after the window. *)
  sample_every_s : float option;  (** Sample {!Runtime.stats} this often. *)
  sink : Sink.t;  (** Driver spans; {!Sink.null} for gated runs. *)
  on_window : [ `Start | `End ] -> unit;
}

type logical = {
  birth : int;  (** Id of the first attempt: the wound-wait age. *)
  site : int option;  (** [Some sid]: a local transaction. *)
  due : float;
  counted : bool;
  traced : bool;  (** Its spans are recorded. *)
  mutable txn : Txn.t;  (** The current (or next) attempt. *)
  mutable attempts : int;
  mutable promise : Outcome.t Promise.t option;
  mutable resubmit_at : float;
  mutable backoff_ms : float;
  mutable settled : float option;
  mutable committed : bool;
  mutable span : int;
  mutable attempt_span : int;
}

type t = {
  rt : Runtime.t;
  plan : plan;
  window_start : float;
  mutable window_stop : float;
  mutable logicals : logical list;  (** Every one generated, newest first. *)
  mutable live : logical list;  (** Not yet final. *)
  mutable global_commits : int;  (** Committed global attempts, whole run. *)
  mutable failed : int;
      (** Counted logical transactions settled without a commit; those
          still unsettled at {!finish} are added there. *)
  mutable submit_us : float list;
  mutable late_ms : float list;
  mutable outstanding_area : float;
  mutable active_sum : float;
  mutable active_samples : int;
}

type result = {
  window : Bench_stats.window;
  window_s : float;
  attempts : int;  (** Over the counted logical transactions. *)
  backoff_ms : float;
  global_commits : int;
  failed : int;
      (** Counted apart from {!Bench_stats.account}, which must find the
          same number: [window.due_in - window.committed]. *)
  submit_us : float list;  (** Submit calls made inside the window. *)
  late_ms : float list;  (** Open loop: submission lag behind due time. *)
  outstanding_mean : float;
  active_mean : float;
}

let in_window d time = time >= d.window_start && time < d.window_stop

(* One logical transaction in [trace_every] has its spans recorded, on a
   track of its own; that keeps a traced run's span file to a few MB.
   Attributes are built only for those, so gated runs allocate nothing
   for them. *)
let trace_every = 16

let span_begin d (l : logical) name attrs =
  let sink = d.plan.sink in
  if l.traced then
    Sink.begin_span sink ~track:(Sink.txn_track sink l.birth) ~attrs:(attrs ())
      name
  else 0

let span_end d span outcome =
  if span <> 0 then Sink.end_span d.plan.sink ~attrs:[ ("outcome", outcome) ] span

let settle (d : t) (l : logical) time ~committed ~outcome =
  l.settled <- Some time;
  l.committed <- committed;
  if l.counted && not committed then d.failed <- d.failed + 1;
  span_end d l.span outcome

let submit d (l : logical) =
  l.attempts <- l.attempts + 1;
  l.attempt_span <-
    span_begin d l "attempt" (fun () ->
        [ ("attempt", string_of_int l.attempts);
          ("gid", string_of_int l.txn.Txn.id) ]);
  let call, submit =
    match (l.site, d.plan.load) with
    | Some _, _ -> ("runtime.submit_local", fun () -> Some (Runtime.submit_local d.rt l.txn))
    | None, Workloads.Closed _ ->
        ( "runtime.submit_global",
          fun () -> Some (Runtime.submit_global d.rt ~birth:l.birth l.txn) )
    | None, Workloads.Open _ ->
        ( "runtime.try_submit_global",
          fun () -> Runtime.try_submit_global d.rt ~birth:l.birth l.txn )
  in
  let span = span_begin d l call (fun () -> []) in
  let t0 = now () in
  let p = submit () in
  let t1 = now () in
  span_end d span (if p = None then "rejected" else "admitted");
  if in_window d t0 then d.submit_us <- ((t1 -. t0) *. 1e6) :: d.submit_us;
  (match d.plan.load with
  | Workloads.Open _ when l.attempts = 1 && l.counted ->
      d.late_ms <- ((t0 -. l.due) *. 1000.) :: d.late_ms
  | _ -> ());
  match p with
  | Some p -> l.promise <- Some p
  | None ->
      (* The admission lane was full: the open loop does not wait. *)
      span_end d l.attempt_span "rejected";
      settle d l t1 ~committed:false ~outcome:"rejected"

let spawn d rng ~due ~index =
  let plan = d.plan in
  let site =
    if plan.local_fraction > 0. && Rng.float rng 1.0 < plan.local_fraction
    then Some (Rng.int rng plan.wl.Workload.m)
    else None
  in
  let txn =
    match site with
    | Some sid -> Workload.local_txn rng plan.wl sid
    | None -> Workload.global_txn rng plan.wl
  in
  let l =
    {
      birth = txn.Txn.id; site; due; counted = in_window d due;
      traced = Sink.enabled plan.sink && index mod trace_every = 0; txn;
      attempts = 0; promise = None; resubmit_at = due; backoff_ms = 0.;
      settled = None; committed = false; span = 0; attempt_span = 0;
    }
  in
  l.span <-
    span_begin d l "logical" (fun () ->
        [ ("kind", if site = None then "global" else "local");
          ("counted", string_of_bool l.counted) ]);
  d.logicals <- l :: d.logicals;
  d.live <- l :: d.live;
  submit d l

(* Harvest settled attempts. A retryable outcome within the attempt budget
   reissues the same script under a fresh id after the policy's backoff,
   keeping the first attempt's id as its age; anything else is final.
   Without a backoff stream nothing is retried. *)
let poll d backoff time =
  List.iter
    (fun (l : logical) ->
      match l.promise with
      | None -> ()
      | Some p -> (
          match Promise.peek p with
          | None -> ()
          | Some out ->
              l.promise <- None;
              let outcome = Outcome.to_string out in
              span_end d l.attempt_span outcome;
              if out = Outcome.Committed then begin
                if l.site = None then d.global_commits <- d.global_commits + 1;
                settle d l time ~committed:true ~outcome
              end
              else
                match backoff with
                | Some brng
                  when l.attempts < d.plan.retry.Retry.max_attempts
                       && Retry.retryable out ->
                let ms =
                  Retry.delay_ms d.plan.retry brng ~attempt:l.attempts
                    ~shed:(out = Outcome.Shed)
                in
                l.backoff_ms <- l.backoff_ms +. ms;
                l.resubmit_at <- time +. (ms /. 1000.);
                l.txn <- Txn.with_id l.txn (Types.fresh_tid ());
                let sink = d.plan.sink in
                if l.traced then
                  Sink.instant sink
                    ~track:(Sink.txn_track sink l.birth)
                    ~attrs:[ ("ms", Printf.sprintf "%.3f" ms) ]
                    "retry.backoff"
                | _ -> settle d l time ~committed:false ~outcome))
    d.live;
  d.live <- List.filter (fun l -> l.settled = None) d.live

let run rt plan ~seed =
  let master = Rng.create seed in
  let wrng = Rng.substream master 0 in
  let arng = Rng.substream master 1 in
  let brng = Rng.substream master 2 in
  let prng = Rng.substream master 3 in
  let t0 = now () in
  Sink.set_clock plan.sink (fun () -> (now () -. t0) *. 1000.);
  let window_start = t0 +. plan.warmup_s in
  let d =
    {
      rt; plan; window_start;
      window_stop =
        (if plan.limit = None then window_start +. plan.window_s else infinity);
      logicals = []; live = []; global_commits = 0; failed = 0;
      submit_us = []; late_ms = []; outstanding_area = 0.; active_sum = 0.;
      active_samples = 0;
    }
  in
  let created = ref 0 in
  let next_due = ref t0 in
  let next_sample = ref window_start in
  let started = ref false in
  let last = ref t0 in
  let generating time =
    match (plan.limit, plan.load) with
    | Some n, _ -> !created < n
    | None, Workloads.Closed _ -> time < d.window_stop
    | None, Workloads.Open _ -> !next_due < d.window_stop
  in
  let gen_done = ref None in
  let rec loop () =
    let time = now () in
    if (not !started) && time >= window_start then begin
      started := true;
      plan.on_window `Start
    end;
    if in_window d !last then
      d.outstanding_area <-
        d.outstanding_area
        +. (float_of_int (List.length d.live) *. (time -. !last));
    last := time;
    poll d (Some brng) time;
    (match plan.load with
    | Workloads.Closed n ->
        while generating time && List.length d.live < n do
          incr created;
          spawn d wrng ~due:time ~index:!created
        done
    | Workloads.Open rate ->
        while generating time && !next_due <= time do
          incr created;
          spawn d wrng ~due:!next_due ~index:!created;
          next_due := !next_due +. Rng.exponential arng rate
        done);
    List.iter
      (fun l ->
        if l.promise = None && l.settled = None && l.resubmit_at <= time then
          submit d l)
      d.live;
    (match plan.sample_every_s with
    | Some every when in_window d time && time >= !next_sample ->
        next_sample := time +. every;
        d.active_sum <-
          d.active_sum +. float_of_int (Runtime.stats rt).Runtime.active;
        d.active_samples <- d.active_samples + 1
    | _ -> ());
    if !gen_done = None && not (generating time) then begin
      gen_done := Some time;
      (* Just past the last due time: every generated one is inside. *)
      if plan.limit <> None then d.window_stop <- Float.succ time;
      plan.on_window `End
    end;
    let draining_until =
      match !gen_done with None -> infinity | Some g -> g +. plan.drain_s
    in
    if !gen_done = None || (d.live <> [] && time < draining_until) then begin
      let sweep =
        if List.exists (fun l -> l.promise <> None) d.live then
          time +. Rng.float prng poll_jitter_s
        else infinity
      in
      let wake =
        List.fold_left
          (fun acc l ->
            if l.promise = None && l.settled = None then
              Float.min acc l.resubmit_at
            else acc)
          sweep d.live
      in
      let wake =
        match plan.load with
        | Workloads.Open _ when generating time -> Float.min wake !next_due
        | _ -> wake
      in
      if wake > time then Thread.delay (wake -. time);
      loop ()
    end
  in
  loop ();
  d

(* After {!Runtime.shutdown}: every admitted attempt has a final status.
   Those are harvested without retrying; a transaction still waiting out a
   backoff stays unsettled and counts as failed. *)
let finish d =
  poll d None (now ());
  List.iter (fun l -> span_end d l.span "unsettled") d.live;
  let counted = List.filter (fun l -> l.counted) d.logicals in
  let window_s = d.window_stop -. d.window_start in
  {
    window =
      Bench_stats.account ~start:d.window_start ~stop:d.window_stop
        (List.map
           (fun (l : logical) ->
             { Bench_stats.due = l.due; settled = l.settled;
               committed = l.committed })
           d.logicals);
    window_s;
    attempts = List.fold_left (fun a (l : logical) -> a + l.attempts) 0 counted;
    backoff_ms = List.fold_left (fun a (l : logical) -> a +. l.backoff_ms) 0. counted;
    global_commits = d.global_commits;
    failed = d.failed + List.length (List.filter (fun l -> l.counted) d.live);
    submit_us = d.submit_us;
    late_ms = d.late_ms;
    outstanding_mean =
      (if window_s > 0. then d.outstanding_area /. window_s else 0.);
    active_mean =
      (if d.active_samples > 0 then
         d.active_sum /. float_of_int d.active_samples
       else 0.);
  }
