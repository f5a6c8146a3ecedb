open Mdbs_model
module Local_dbms = Mdbs_site.Local_dbms
module Server = Mdbs_site.Server

type request =
  | Exec of {
      req : int;
      tid : Types.tid;
      action : Op.action;
      accesses : (Item.t * bool) list;
    }
  | Resolve of { tid : Types.tid; action : Op.action }
  | Batch of request list
  | Run_local of { txn : Txn.t; promise : Outcome.t Promise.t }
  | Crash
  | Stop

type reply =
  | Answer of { req : int; tid : Types.tid; answer : Server.answer }
  | Unblocked of { tid : Types.tid }
  | Crashed of { sid : Types.sid; in_doubt : Types.tid list }

type t = {
  sid : Types.sid;
  box : request Mailbox.t;
  handled : int Atomic.t;
  domain : Mdbs_site.Local_dbms.t Domain.t;
}

(* Replies accumulate in [out] while a wakeup's batch executes and are
   shipped as one urgent message when it finishes — the coalescing half
   of the GTM's per-site outbox pipeline. Local clients' promises are
   buffered in [settled] the same way: a terminal outcome is only
   broadcast after the batch's group-commit fsync, so an acknowledged
   commit is a durable one even for the direct Run_local path. *)
type state = {
  srv : Server.t;
  out : reply list ref;
  settled : (Outcome.t Promise.t * Outcome.t) list ref;
  observe : Types.tid -> Op.action -> string -> unit;
  on_done : Types.tid -> unit;
  clients : (Types.tid, Outcome.t Promise.t) Hashtbl.t; (* live locals *)
}

let emit st r = st.out := r :: !(st.out)

(* A local transaction ended here: the certifier's [End] lands after its
   final schedule entry, and the client learns the outcome only after the
   batch's fsync. *)
let end_local st tid outcome =
  match Hashtbl.find_opt st.clients tid with
  | Some promise ->
      Hashtbl.remove st.clients tid;
      st.on_done tid;
      st.settled := (promise, outcome) :: !(st.settled)
  | None -> ()

(* Run a local transaction until it parks (the drain resumes it) or
   ends. *)
let rec advance_local st tid = function
  | Server.Ready ->
      let action, progress = Server.local_step st.srv tid in
      st.observe tid action
        (match progress with
        | Server.Ready | Server.Committed -> "executed"
        | Server.Parked -> "waiting"
        | Server.Aborted _ -> "aborted");
      advance_local st tid progress
  | Server.Parked -> ()
  | Server.Committed -> end_local st tid Outcome.Committed
  | Server.Aborted reason -> end_local st tid (Outcome.Aborted reason)

(* Lock releases only happen at this site, and this worker serializes all
   of the site's operations, so draining after every request — until a
   resumed local releases nothing more — catches every unblocked waiter. *)
let rec drain st =
  match Server.drain st.srv with
  | [] -> ()
  | completions ->
      List.iter
        (function
          | Server.Unblocked (tid, action) ->
              st.observe tid action "unblocked";
              emit st (Unblocked { tid })
          | Server.Resumed (tid, action, progress) ->
              st.observe tid action "unblocked";
              advance_local st tid progress)
        completions;
      drain st

let rec handle st = function
  | Exec { req; tid; action; accesses } ->
      let answer, label =
        match (Server.step st.srv tid ~accesses action).Server.answer with
        | Server.Done -> (Server.Done, "executed")
        | Server.Blocked -> (Server.Blocked, "waiting")
        | Server.Refused _ as refused -> (refused, "aborted")
        | exception e -> (Server.Refused (Printexc.to_string e), "refused")
      in
      st.observe tid action label;
      emit st (Answer { req; tid; answer });
      drain st
  | Resolve { tid; action } ->
      Server.resolve st.srv tid action;
      st.observe tid action "resolved";
      drain st
  | Batch reqs ->
      (* One mailbox message carrying a whole dispatch round for this
         site; list order is GTM dispatch order (the Theorem-2 per-site
         ordering obligation rides on processing it in order). *)
      List.iter (handle st) reqs
  | Run_local { txn; promise } ->
      let tid = txn.Txn.id in
      Hashtbl.replace st.clients tid promise;
      (match
         Server.start_local st.srv txn;
         advance_local st tid Server.Ready
       with
      | () -> ()
      | exception e -> end_local st tid (Outcome.Aborted (Printexc.to_string e)));
      drain st
  | Crash -> (
      match Server.crash st.srv with
      | None -> () (* no write-ahead log: a no-op fault *)
      | Some { Server.in_doubt; dead_locals } ->
          List.iter (fun tid -> end_local st tid (Outcome.Aborted "site-crash")) dead_locals;
          emit st (Crashed { sid = Server.sid st.srv; in_doubt }))
  | Stop -> ()

let count_of = function Batch reqs -> List.length reqs | _ -> 1

let worker_loop box handled reply observe on_done dbms =
  let st =
    {
      srv = Server.create dbms;
      out = ref [];
      settled = ref [];
      observe;
      on_done;
      clients = Hashtbl.create 16;
    }
  in
  (* Runs only after [sync_durable]: nothing a client can observe — a
     promise broadcast or a GTM reply — escapes ahead of the fsync that
     makes the outcome durable. *)
  let flush () =
    (match List.rev !(st.settled) with
    | [] -> ()
    | ps ->
        st.settled := [];
        List.iter (fun (p, o) -> Promise.fulfill p o) ps);
    match List.rev !(st.out) with
    | [] -> ()
    | rs ->
        st.out := [];
        reply rs
  in
  let settle () =
    (* Abandon parked locals (shutdown): settle their clients. *)
    Hashtbl.iter
      (fun tid promise ->
        st.on_done tid;
        Promise.fulfill promise (Outcome.Aborted "shutdown"))
      st.clients
  in
  (* Returns [true] when Stop terminates the batch. *)
  let rec process = function
    | [] -> false
    | Stop :: _ -> true
    | req :: rest ->
        handle st req;
        ignore (Atomic.fetch_and_add handled (count_of req));
        process rest
  in
  let rec loop () =
    match Mailbox.drain box with
    | [] ->
        settle ();
        dbms
    | batch ->
        let stop = process batch in
        (* Group commit: one fsync covers every WAL record the whole
           drain produced — all transactions that prepared or committed
           in this batch — and it lands before their replies ship or
           their clients' promises broadcast, so an acknowledged outcome
           is a durable one. No-op for `Mem. *)
        Local_dbms.sync_durable dbms;
        (* One urgent reply message per wakeup, however many requests the
           drain carried. *)
        flush ();
        if stop then begin
          settle ();
          dbms
        end
        else loop ()
  in
  loop ()

let spawn ~reply ?(observe = fun _ _ _ -> ()) ?(on_local_done = fun _ -> ())
    dbms =
  let box = Mailbox.create ~capacity:1 () in
  let handled = Atomic.make 0 in
  {
    sid = Local_dbms.site_id dbms;
    box;
    handled;
    domain =
      Domain.spawn (fun () ->
          worker_loop box handled reply observe on_local_done dbms);
  }

let sid t = t.sid

let send t req = ignore (Mailbox.put_urgent t.box req)

let ops_handled t = Atomic.get t.handled

let join t = Domain.join t.domain
