open Mdbs_model
module Dllist = Mdbs_util.Dllist
module Iset = Mdbs_util.Iset

type event =
  | Site of Types.sid * Types.protocol_kind option
  | Global of Types.tid * Types.sid list
  | Op of Types.sid * Types.tid * Op.action
  | Ser of Types.tid * Types.sid
  | End of Types.tid

(* --- incremental topological order (Pearce–Kelly) ---------------------- *)

(* An ordered digraph: [ord] increases along every edge. [add_edge] is O(1)
   when the new edge already agrees with the order; otherwise it reorders
   only the affected region (forward from dst bounded by ord(src), backward
   from src bounded by ord(dst)). A cycle is detected exactly when the
   forward search reaches the source, and reconstructed from the search's
   parent pointers. *)
module Topo = struct
  type node = { mutable ord : int; mutable succ : Iset.t; mutable pred : Iset.t }

  type t = {
    tbl : (int, node) Hashtbl.t;
    mutable next_ord : int;
    mutable n_edges : int;
  }

  let create () = { tbl = Hashtbl.create 64; next_ord = 0; n_edges = 0 }

  let get t id = Hashtbl.find t.tbl id

  let add_node t id =
    if not (Hashtbl.mem t.tbl id) then begin
      Hashtbl.replace t.tbl id
        { ord = t.next_ord; succ = Iset.empty; pred = Iset.empty };
      t.next_ord <- t.next_ord + 1
    end

  let mem_edge t a b =
    match Hashtbl.find_opt t.tbl a with
    | Some n -> Iset.mem b n.succ
    | None -> false

  let in_degree t id =
    match Hashtbl.find_opt t.tbl id with
    | Some n -> Iset.cardinal n.pred
    | None -> 0

  let succ_list t id =
    match Hashtbl.find_opt t.tbl id with
    | Some n -> Iset.to_list n.succ
    | None -> []

  let edge_count t = t.n_edges

  (* Forward DFS from [start] over nodes with ord <= [bound]; stops when
     [target] is found. Returns the visited set and, on hit, the parent
     map path target <- ... <- start. *)
  let forward_search t ~start ~target ~bound =
    let parent : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let visited : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let hit = ref false in
    let stack = ref [ start ] in
    Hashtbl.replace visited start ();
    while (not !hit) && !stack <> [] do
      match !stack with
      | [] -> ()
      | u :: rest ->
          stack := rest;
          Iset.iter
            (fun v ->
              if not !hit then
                if v = target then begin
                  Hashtbl.replace parent v u;
                  hit := true
                end
                else if
                  (not (Hashtbl.mem visited v)) && (get t v).ord <= bound
                then begin
                  Hashtbl.replace visited v ();
                  Hashtbl.replace parent v u;
                  stack := v :: !stack
                end)
            (get t u).succ
    done;
    (visited, parent, !hit)

  let backward_search t ~start ~bound =
    let visited : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let stack = ref [ start ] in
    Hashtbl.replace visited start ();
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | u :: rest ->
          stack := rest;
          Iset.iter
            (fun v ->
              if (not (Hashtbl.mem visited v)) && (get t v).ord >= bound then begin
                Hashtbl.replace visited v ();
                stack := v :: !stack
              end)
            (get t u).pred
    done;
    visited

  (* The cycle [a; b; ...; u] (edges a->b->...->u->a) closed by the new
     edge a->b, from the forward search's parent map (path b -> ... -> a). *)
  let cycle_of_parents parent a b =
    let rec walk acc v = if v = b then v :: acc else walk (v :: acc) (Hashtbl.find parent v) in
    (* walk yields [b; ...; a]; drop the final a and prepend it. *)
    let path = walk [] a in
    let rec butlast = function
      | [] | [ _ ] -> []
      | x :: rest -> x :: butlast rest
    in
    a :: butlast path

  let add_edge t a b =
    if a = b then Error [ a ]
    else begin
      add_node t a;
      add_node t b;
      let na = get t a and nb = get t b in
      if Iset.mem b na.succ then Ok ()
      else begin
        na.succ <- Iset.add b na.succ;
        nb.pred <- Iset.add a nb.pred;
        t.n_edges <- t.n_edges + 1;
        if na.ord < nb.ord then Ok ()
        else begin
          let lb = nb.ord and ub = na.ord in
          let fwd, parent, hit = forward_search t ~start:b ~target:a ~bound:ub in
          if hit then Error (cycle_of_parents parent a b)
          else begin
            let bwd = backward_search t ~start:a ~bound:lb in
            let by_ord ids =
              List.sort
                (fun x y -> compare (get t x).ord (get t y).ord)
                (Hashtbl.fold (fun id () acc -> id :: acc) ids [])
            in
            let seq = by_ord bwd @ by_ord fwd in
            let slots =
              List.sort compare (List.map (fun id -> (get t id).ord) seq)
            in
            List.iter2 (fun id o -> (get t id).ord <- o) seq slots;
            Ok ()
          end
        end
      end
    end

  let remove_node t id =
    match Hashtbl.find_opt t.tbl id with
    | None -> ()
    | Some n ->
        Iset.iter
          (fun v ->
            let nv = get t v in
            nv.pred <- Iset.remove id nv.pred;
            t.n_edges <- t.n_edges - 1)
          n.succ;
        Iset.iter
          (fun v ->
            let nv = get t v in
            nv.succ <- Iset.remove id nv.succ;
            t.n_edges <- t.n_edges - 1)
          n.pred;
        Hashtbl.remove t.tbl id

  let order t =
    Hashtbl.fold (fun id n acc -> (n.ord, id) :: acc) t.tbl []
    |> List.sort compare |> List.map snd
end

(* --- internal chain: doubly-linked with neighbor traversal -------------- *)

(* [Dllist] gives O(1) removal but no prev/next access from a handle; the
   per-site serialization chains need "nearest committed neighbor" scans. *)
type 'a cnode = {
  cv : 'a;
  mutable cprev : 'a cnode option;
  mutable cnext : 'a cnode option;
  mutable clinked : bool;
}

type 'a chain = { mutable ctail : 'a cnode option }

let chain_create () = { ctail = None }

let chain_append ch v =
  let n = { cv = v; cprev = ch.ctail; cnext = None; clinked = true } in
  (match ch.ctail with Some tl -> tl.cnext <- Some n | None -> ());
  ch.ctail <- Some n;
  n

let chain_unlink ch n =
  if n.clinked then begin
    (match n.cprev with Some p -> p.cnext <- n.cnext | None -> ());
    (match n.cnext with
    | Some s -> s.cprev <- n.cprev
    | None -> ch.ctail <- n.cprev);
    n.clinked <- false
  end

(* --- state -------------------------------------------------------------- *)

type ser_state = Ser_undecided | Ser_committed

type ser_entry = {
  se_tid : int;
  se_site : int;
  se_pos : int;  (** Index in the site's raw serialization-event order. *)
  mutable se_state : ser_state;
  mutable se_node : ser_entry cnode option;
  mutable se_und : ser_entry Dllist.node option;
}

type access = { ac_tid : int; ac_index : int; ac_action : Op.action }

type item_idx = { it_readers : access Dllist.t; it_writers : access Dllist.t }

type site_state = {
  st_sid : int;
  mutable st_pos : int;  (** Next op index in the full local schedule. *)
  mutable st_ser_pos : int;
  st_items : (Item.t, item_idx) Hashtbl.t;
  st_frontier : (int * int) Dllist.t;
      (** Site-undecided transactions as (tid, first op index), in first-op
          order; the head's index is the site's decision frontier. *)
  st_ser : ser_entry chain;
  st_ser_und : ser_entry Dllist.t;
}

type site_status = S_active | S_committed | S_aborted

type txn_site = {
  ws_st : site_state;
  mutable ws_status : site_status;
  mutable ws_last : int;
  mutable ws_accesses : (access Dllist.t * access Dllist.node) list;
  mutable ws_frontier : (int * int) Dllist.node option;
  mutable ws_pending : pedge list;
      (** Candidate conflict edges waiting on this (txn, site) commit. *)
}

and pedge = {
  pe_src : txn;
  pe_dst : txn;
  pe_wit : Conflicts.edge;
  mutable pe_wait : int;
  mutable pe_dead : bool;
}

and txn = {
  tx_tid : int;
  mutable tx_global : bool;
  mutable tx_sites : (int * txn_site) list;
  mutable tx_end : bool;
  mutable tx_committed : bool;  (** A [Commit] was recorded at some site. *)
  mutable tx_t2_member : bool;
  mutable tx_ser : ser_entry list;
  mutable tx_stable : bool;
  mutable tx_t2_stable : bool;
}

type t = {
  strict_end : bool;
  assume_committed : bool;
  retain_order : bool;
  gc_interval : int;
  sites : (int, site_state) Hashtbl.t;
  txns : (int, txn) Hashtbl.t;
  csr : Topo.t;
  t2 : Topo.t;
  edge_wit : (int * int, Conflicts.edge) Hashtbl.t;
  t2_wit : (int * int, int * int * int) Hashtbl.t;  (** (site, src_pos, dst_pos). *)
  pend_keys : (int * int * int, unit) Hashtbl.t;  (** (src, dst, site) pending. *)
  pool : (int, unit) Hashtbl.t;  (** Decided, not yet fully garbage-collected. *)
  mutable n_events : int;
  mutable n_committed : int;
  mutable peak_live : int;
  mutable ser_seen : bool;
  mutable csr_stable_rev : int list;
  mutable csr_stable_n : int;
  mutable t2_stable_rev : int list;
  mutable t2_stable_n : int;
  site_stable : (int, int list ref) Hashtbl.t;
  mutable evicted_rev : int list;  (** Since the last checkpoint, for the chain. *)
  mutable verdict : Certifier.counterexample option;
  mutable last_digest : string;
  mutable n_checkpoints : int;
}

let genesis_digest = Digest.to_hex (Digest.string "mdbs-cert-chain-v1")

let create ?(strict_end = true) ?(assume_committed = false)
    ?(retain_order = true) ?(gc_interval = 256) () =
  {
    strict_end;
    assume_committed;
    retain_order;
    gc_interval = max 1 gc_interval;
    sites = Hashtbl.create 8;
    txns = Hashtbl.create 256;
    csr = Topo.create ();
    t2 = Topo.create ();
    edge_wit = Hashtbl.create 256;
    t2_wit = Hashtbl.create 64;
    pend_keys = Hashtbl.create 256;
    pool = Hashtbl.create 64;
    n_events = 0;
    n_committed = 0;
    peak_live = 0;
    ser_seen = false;
    csr_stable_rev = [];
    csr_stable_n = 0;
    t2_stable_rev = [];
    t2_stable_n = 0;
    site_stable = Hashtbl.create 8;
    evicted_rev = [];
    verdict = None;
    last_digest = genesis_digest;
    n_checkpoints = 0;
  }

let violated t = t.verdict <> None

let verdict t = t.verdict

let site_state t sid =
  match Hashtbl.find_opt t.sites sid with
  | Some st -> st
  | None ->
      let st =
        {
          st_sid = sid;
          st_pos = 0;
          st_ser_pos = 0;
          st_items = Hashtbl.create 32;
          st_frontier = Dllist.create ();
          st_ser = chain_create ();
          st_ser_und = Dllist.create ();
        }
      in
      Hashtbl.replace t.sites sid st;
      Hashtbl.replace t.site_stable sid (ref []);
      st

let txn t tid =
  match Hashtbl.find_opt t.txns tid with
  | Some tx -> tx
  | None ->
      let tx =
        {
          tx_tid = tid;
          tx_global = false;
          tx_sites = [];
          tx_end = false;
          tx_committed = false;
          tx_t2_member = false;
          tx_ser = [];
          tx_stable = false;
          tx_t2_stable = false;
        }
      in
      Hashtbl.replace t.txns tid tx;
      if Hashtbl.length t.txns > t.peak_live then
        t.peak_live <- Hashtbl.length t.txns;
      tx

let txn_site tx st index =
  match List.assoc_opt st.st_sid tx.tx_sites with
  | Some ws -> ws
  | None ->
      let ws =
        {
          ws_st = st;
          ws_status = S_active;
          ws_last = index;
          ws_accesses = [];
          ws_frontier = None;
          ws_pending = [];
        }
      in
      (* First-op indexes arrive in increasing order per site, so appending
         keeps the frontier list sorted. *)
      ws.ws_frontier <- Some (Dllist.push_back st.st_frontier (tx.tx_tid, index));
      tx.tx_sites <- (st.st_sid, ws) :: tx.tx_sites;
      ws

(* --- violations --------------------------------------------------------- *)

let cycle_pairs cycle =
  match cycle with
  | [] -> []
  | first :: _ ->
      let rec go = function
        | [ last ] -> [ (last, first) ]
        | a :: (b :: _ as rest) -> (a, b) :: go rest
        | [] -> []
      in
      go cycle

let conflict_violation t cycle =
  let witnesses =
    List.map
      (fun (a, b) ->
        ( a,
          b,
          Option.map
            (fun e -> Certifier.Conflict_ops e)
            (Hashtbl.find_opt t.edge_wit (a, b)) ))
      (cycle_pairs cycle)
  in
  (* A cycle whose witnesses all live at one site is a local-serializability
     violation (Theorem 2's first obligation); otherwise it is a cycle of
     the union conflict graph. *)
  let scope =
    let sites =
      List.filter_map
        (function
          | _, _, Some (Certifier.Conflict_ops e) -> Some e.Conflicts.site
          | _ -> None)
        witnesses
    in
    match sites with
    | s :: rest
      when List.length sites = List.length witnesses
           && List.for_all (fun x -> x = s) rest ->
        Certifier.Local_conflict s
    | _ -> Certifier.Global_conflict
  in
  t.verdict <- Some { Certifier.scope; cycle; witnesses }

let ser_violation t cycle =
  let witnesses =
    List.map
      (fun (a, b) ->
        ( a,
          b,
          Option.map
            (fun (site, src_pos, dst_pos) ->
              Certifier.Ser_events
                { site; src_pos; dst_pos; src_ticket = None; dst_ticket = None })
            (Hashtbl.find_opt t.t2_wit (a, b)) ))
      (cycle_pairs cycle)
  in
  t.verdict <- Some { Certifier.scope = Certifier.Ser_s; cycle; witnesses }

(* --- conflict edges ----------------------------------------------------- *)

let materialize t pe =
  if
    (not pe.pe_dead) && t.verdict = None
    && (not pe.pe_src.tx_stable)
    (* An edge out of a stable transaction points forward by construction
       and can never participate in a cycle; dropping it is what makes the
       stable prefix collectable. *)
  then begin
    let a = pe.pe_src.tx_tid and b = pe.pe_dst.tx_tid in
    Hashtbl.remove t.pend_keys (a, b, pe.pe_wit.Conflicts.site);
    if not (Hashtbl.mem t.edge_wit (a, b)) then
      Hashtbl.replace t.edge_wit (a, b) pe.pe_wit;
    match Topo.add_edge t.csr a b with
    | Ok () -> ()
    | Error cycle -> conflict_violation t cycle
  end

let kill_pedge t pe =
  if not pe.pe_dead then begin
    pe.pe_dead <- true;
    Hashtbl.remove t.pend_keys
      (pe.pe_src.tx_tid, pe.pe_dst.tx_tid, pe.pe_wit.Conflicts.site)
  end

let item_idx st item =
  match Hashtbl.find_opt st.st_items item with
  | Some idx -> idx
  | None ->
      let idx = { it_readers = Dllist.create (); it_writers = Dllist.create () } in
      Hashtbl.replace st.st_items item idx;
      idx

(* A data operation: scan the per-item index for conflicting earlier
   accesses, creating pending edges that materialize when both endpoints
   commit at the site; then index the op itself. *)
let data_op t tx ws item action index =
  let st = ws.ws_st in
  let idx = item_idx st item in
  let write = Op.is_write_like action in
  let self = { ac_tid = tx.tx_tid; ac_index = index; ac_action = action } in
  let consider ac =
    if ac.ac_tid <> tx.tx_tid then begin
      let src_tx = Hashtbl.find t.txns ac.ac_tid in
      let key = (ac.ac_tid, tx.tx_tid, st.st_sid) in
      let have =
        Hashtbl.mem t.pend_keys key || Topo.mem_edge t.csr ac.ac_tid tx.tx_tid
      in
      if not have then begin
        let src_ws = List.assoc st.st_sid src_tx.tx_sites in
        let wit =
          {
            Conflicts.site = st.st_sid;
            src =
              {
                Conflicts.index = ac.ac_index;
                tid = ac.ac_tid;
                action = ac.ac_action;
              };
            dst = { Conflicts.index; tid = tx.tx_tid; action };
          }
        in
        let wait =
          (if src_ws.ws_status = S_committed then 0 else 1)
          + if ws.ws_status = S_committed then 0 else 1
        in
        let pe = { pe_src = src_tx; pe_dst = tx; pe_wit = wit; pe_wait = wait; pe_dead = false } in
        if wait = 0 then materialize t pe
        else begin
          Hashtbl.replace t.pend_keys key ();
          if src_ws.ws_status <> S_committed then
            src_ws.ws_pending <- pe :: src_ws.ws_pending;
          if ws.ws_status <> S_committed then ws.ws_pending <- pe :: ws.ws_pending
        end
      end
    end
  in
  Dllist.iter consider idx.it_writers;
  if write then Dllist.iter consider idx.it_readers;
  let list = if write then idx.it_writers else idx.it_readers in
  ws.ws_accesses <- (list, Dllist.push_back list self) :: ws.ws_accesses

let drop_accesses ws =
  List.iter (fun (list, node) -> Dllist.remove list node) ws.ws_accesses;
  ws.ws_accesses <- []

let leave_frontier ws =
  match ws.ws_frontier with
  | Some node ->
      Dllist.remove ws.ws_st.st_frontier node;
      ws.ws_frontier <- None
  | None -> ()

(* --- serialization entries ---------------------------------------------- *)

let t2_edge t a b =
  if t.verdict = None then
    match Topo.add_edge t.t2 a b with
    | Ok () -> ()
    | Error cycle -> ser_violation t cycle

let rec prev_committed = function
  | None -> None
  | Some n -> (
      match n.cv.se_state with
      | Ser_committed -> Some n.cv
      | Ser_undecided -> prev_committed n.cprev)

let rec next_committed = function
  | None -> None
  | Some n -> (
      match n.cv.se_state with
      | Ser_committed -> Some n.cv
      | Ser_undecided -> next_committed n.cnext)

(* A serialization entry joins the committed chain of its site: link it to
   its nearest committed neighbors (skipping undecided entries — those
   edges are transitively implied once the gap decides). *)
let decide_ser_entry t se =
  if se.se_state = Ser_undecided then begin
    se.se_state <- Ser_committed;
    (match se.se_und with
    | Some node ->
        let st = Hashtbl.find t.sites se.se_site in
        Dllist.remove st.st_ser_und node;
        se.se_und <- None
    | None -> ());
    Topo.add_node t.t2 se.se_tid;
    match se.se_node with
    | None -> ()
    | Some n ->
        (match prev_committed n.cprev with
        | Some p when p.se_tid <> se.se_tid ->
            if not (Hashtbl.mem t.t2_wit (p.se_tid, se.se_tid)) then
              Hashtbl.replace t.t2_wit (p.se_tid, se.se_tid)
                (se.se_site, p.se_pos, se.se_pos);
            t2_edge t p.se_tid se.se_tid
        | Some _ | None -> ());
        (match next_committed n.cnext with
        | Some q when q.se_tid <> se.se_tid ->
            if not (Hashtbl.mem t.t2_wit (se.se_tid, q.se_tid)) then
              Hashtbl.replace t.t2_wit (se.se_tid, q.se_tid)
                (se.se_site, se.se_pos, q.se_pos);
            t2_edge t se.se_tid q.se_tid
        | Some _ | None -> ())
  end

let kill_ser_entry t se =
  (match se.se_und with
  | Some node ->
      let st = Hashtbl.find t.sites se.se_site in
      Dllist.remove st.st_ser_und node;
      se.se_und <- None
  | None -> ());
  match se.se_node with
  | Some n ->
      let st = Hashtbl.find t.sites se.se_site in
      chain_unlink st.st_ser n;
      se.se_node <- None
  | None -> ()

let enter_t2 t tx =
  if not tx.tx_t2_member then begin
    tx.tx_t2_member <- true;
    List.iter (decide_ser_entry t) tx.tx_ser
  end

(* --- garbage collection -------------------------------------------------- *)

let frontier_pos st =
  match Dllist.peek_front st.st_frontier with
  | Some (_, first) -> first
  | None -> max_int

let ser_frontier_pos st =
  match Dllist.peek_front st.st_ser_und with
  | Some se -> se.se_pos
  | None -> max_int

let input_closed_ops tx =
  List.for_all
    (fun (_, ws) -> frontier_pos ws.ws_st > ws.ws_last)
    tx.tx_sites

let fully_decided tx =
  tx.tx_end && List.for_all (fun (_, ws) -> ws.ws_status <> S_active) tx.tx_sites

let stabilize_csr t tx =
  List.iter
    (fun (_, ws) ->
      drop_accesses ws;
      List.iter (kill_pedge t) ws.ws_pending;
      ws.ws_pending <- [])
    tx.tx_sites;
  List.iter
    (fun v -> Hashtbl.remove t.edge_wit (tx.tx_tid, v))
    (Topo.succ_list t.csr tx.tx_tid);
  Topo.remove_node t.csr tx.tx_tid;
  t.csr_stable_n <- t.csr_stable_n + 1;
  t.evicted_rev <- tx.tx_tid :: t.evicted_rev;
  if t.retain_order then begin
    t.csr_stable_rev <- tx.tx_tid :: t.csr_stable_rev;
    List.iter
      (fun (sid, ws) ->
        if ws.ws_status = S_committed then
          let r = Hashtbl.find t.site_stable sid in
          r := tx.tx_tid :: !r)
      tx.tx_sites
  end;
  tx.tx_stable <- true

let stabilize_t2 t tx =
  List.iter (kill_ser_entry t) tx.tx_ser;
  List.iter
    (fun v -> Hashtbl.remove t.t2_wit (tx.tx_tid, v))
    (Topo.succ_list t.t2 tx.tx_tid);
  Topo.remove_node t.t2 tx.tx_tid;
  t.t2_stable_n <- t.t2_stable_n + 1;
  if t.retain_order then t.t2_stable_rev <- tx.tx_tid :: t.t2_stable_rev;
  tx.tx_t2_stable <- true

let gc t =
  if t.verdict = None then begin
    let progress = ref true in
    while !progress do
      progress := false;
      let candidates = Hashtbl.fold (fun tid () acc -> tid :: acc) t.pool [] in
      List.iter
        (fun tid ->
          match Hashtbl.find_opt t.txns tid with
          | None -> Hashtbl.remove t.pool tid
          | Some tx ->
              if
                tx.tx_committed && (not tx.tx_stable) && input_closed_ops tx
                && Topo.in_degree t.csr tid = 0
              then begin
                stabilize_csr t tx;
                progress := true
              end;
              let t2_ready =
                tx.tx_t2_member && (not tx.tx_t2_stable) && tx.tx_ser <> []
                && List.for_all
                     (fun se ->
                       match se.se_node with
                       | None -> true
                       | Some _ ->
                           ser_frontier_pos (Hashtbl.find t.sites se.se_site)
                           > se.se_pos)
                     tx.tx_ser
                && Topo.in_degree t.t2 tid = 0
              in
              if t2_ready then begin
                stabilize_t2 t tx;
                progress := true
              end;
              let csr_done = tx.tx_stable || not tx.tx_committed in
              let t2_done =
                tx.tx_t2_stable || (not tx.tx_t2_member) || tx.tx_ser = []
              in
              if csr_done && t2_done then begin
                Hashtbl.remove t.pool tid;
                Hashtbl.remove t.txns tid
              end)
        candidates
    done
  end

(* A transaction that will never commit anywhere leaves no mark on any
   obligation: discard its state immediately. *)
let discard t tx =
  List.iter
    (fun (_, ws) ->
      drop_accesses ws;
      leave_frontier ws;
      List.iter (kill_pedge t) ws.ws_pending;
      ws.ws_pending <- [])
    tx.tx_sites;
  List.iter (kill_ser_entry t) tx.tx_ser;
  Hashtbl.remove t.txns tx.tx_tid

let on_fully_decided t tx =
  if not tx.tx_committed then begin
    if tx.tx_t2_member && tx.tx_ser <> [] then begin
      (* assume_committed feeds: a Theorem-2 node without a CSR footprint. *)
      List.iter
        (fun (_, ws) ->
          drop_accesses ws;
          leave_frontier ws;
          List.iter (kill_pedge t) ws.ws_pending;
          ws.ws_pending <- [])
        tx.tx_sites;
      Hashtbl.replace t.pool tx.tx_tid ()
    end
    else discard t tx
  end
  else begin
    if not tx.tx_t2_member then List.iter (kill_ser_entry t) tx.tx_ser;
    Hashtbl.replace t.pool tx.tx_tid ()
  end

(* --- per-site decisions -------------------------------------------------- *)

let site_commit t tx ws =
  ws.ws_status <- S_committed;
  leave_frontier ws;
  if not tx.tx_committed then begin
    tx.tx_committed <- true;
    t.n_committed <- t.n_committed + 1;
    Topo.add_node t.csr tx.tx_tid;
    if tx.tx_global then enter_t2 t tx
  end;
  let pending = ws.ws_pending in
  ws.ws_pending <- [];
  List.iter
    (fun pe ->
      if not pe.pe_dead then begin
        pe.pe_wait <- pe.pe_wait - 1;
        if pe.pe_wait = 0 then materialize t pe
      end)
    pending

let site_abort t ws =
  ws.ws_status <- S_aborted;
  leave_frontier ws;
  drop_accesses ws;
  List.iter (kill_pedge t) ws.ws_pending;
  ws.ws_pending <- []

(* --- the event loop ------------------------------------------------------ *)

let feed t ev =
  if t.verdict = None then begin
    t.n_events <- t.n_events + 1;
    (match ev with
    | Site (sid, _protocol) -> ignore (site_state t sid)
    | Global (tid, _visits) ->
        let tx = txn t tid in
        tx.tx_global <- true;
        if t.assume_committed || tx.tx_committed then enter_t2 t tx
    | Op (sid, tid, action) -> (
        let st = site_state t sid in
        let index = st.st_pos in
        st.st_pos <- index + 1;
        let tx = txn t tid in
        if not tx.tx_stable then begin
          let ws = txn_site tx st index in
          ws.ws_last <- index;
          match action with
          | Op.Commit ->
              if ws.ws_status = S_active then begin
                site_commit t tx ws;
                if fully_decided tx then on_fully_decided t tx
              end
          | Op.Abort ->
              if ws.ws_status = S_active then begin
                site_abort t ws;
                if fully_decided tx then on_fully_decided t tx
              end
          | Op.Begin | Op.Prepare -> ()
          | Op.Read _ | Op.Write _ | Op.Ticket_op -> (
              match Op.action_item action with
              | Some item ->
                  if ws.ws_status <> S_aborted then
                    data_op t tx ws item action index
              | None -> ())
        end)
    | Ser (tid, sid) ->
        t.ser_seen <- true;
        let st = site_state t sid in
        let pos = st.st_ser_pos in
        st.st_ser_pos <- pos + 1;
        let tx = txn t tid in
        if not tx.tx_t2_stable then begin
          let se =
            {
              se_tid = tid;
              se_site = sid;
              se_pos = pos;
              se_state = Ser_undecided;
              se_node = None;
              se_und = None;
            }
          in
          se.se_node <- Some (chain_append st.st_ser se);
          tx.tx_ser <- se :: tx.tx_ser;
          if t.assume_committed && tx.tx_global then tx.tx_t2_member <- true;
          if tx.tx_t2_member then decide_ser_entry t se
          else se.se_und <- Some (Dllist.push_back st.st_ser_und se)
        end
    | End tid -> (
        match Hashtbl.find_opt t.txns tid with
        | None -> ()
        | Some tx ->
            if not tx.tx_end then begin
              tx.tx_end <- true;
              if t.strict_end then
                List.iter
                  (fun (_, ws) ->
                    if ws.ws_status = S_active then site_abort t ws)
                  tx.tx_sites;
              if fully_decided tx then on_fully_decided t tx
            end));
    if t.n_events mod t.gc_interval = 0 then gc t
  end

let feed_list t evs = List.iter (feed t) evs

(* --- rolling certificates ------------------------------------------------ *)

let live_committed_order t = Topo.order t.csr

let certificate t =
  if not t.retain_order then None
  else
    let global_order = List.rev_append t.csr_stable_rev (live_committed_order t) in
    let live_at sid tid =
      match Hashtbl.find_opt t.txns tid with
      | None -> false
      | Some tx -> (
          match List.assoc_opt sid tx.tx_sites with
          | Some ws -> ws.ws_status = S_committed
          | None -> false)
    in
    let local_orders =
      Hashtbl.fold (fun sid _ acc -> sid :: acc) t.sites []
      |> List.sort compare
      |> List.map (fun sid ->
             let stable = List.rev !(Hashtbl.find t.site_stable sid) in
             let live =
               List.filter (live_at sid) (live_committed_order t)
             in
             (sid, stable @ live))
    in
    Some
      { Certificate.obligation = Certificate.Csr; local_orders; global_order }

let certificate_t2 t =
  if (not t.retain_order) || not t.ser_seen then None
  else
    match certificate t with
    | None -> None
    | Some csr_cert ->
        Some
          {
            Certificate.obligation = Certificate.Theorem2;
            local_orders = csr_cert.Certificate.local_orders;
            global_order = List.rev_append t.t2_stable_rev (Topo.order t.t2);
          }

type checkpoint = {
  cp_seq : int;
  cp_events : int;
  cp_committed : int;
  cp_stable : int;
  cp_live : int;
  cp_evicted : Types.tid list;
  cp_live_order : Types.tid list;
  cp_digest : string;
  cp_cert : Certificate.t option;
  cp_cert_t2 : Certificate.t option;
}

let chain_digest prev evicted live_order =
  let ids l = String.concat "," (List.map string_of_int l) in
  Digest.to_hex (Digest.string (prev ^ "|" ^ ids evicted ^ "|" ^ ids live_order))

let checkpoint t =
  gc t;
  let evicted = List.rev t.evicted_rev in
  t.evicted_rev <- [];
  let live_order = live_committed_order t in
  let digest = chain_digest t.last_digest evicted live_order in
  t.last_digest <- digest;
  t.n_checkpoints <- t.n_checkpoints + 1;
  {
    cp_seq = t.n_checkpoints;
    cp_events = t.n_events;
    cp_committed = t.n_committed;
    cp_stable = t.csr_stable_n;
    cp_live = Hashtbl.length t.txns;
    cp_evicted = evicted;
    cp_live_order = live_order;
    cp_digest = digest;
    cp_cert = certificate t;
    cp_cert_t2 = certificate_t2 t;
  }

let verify_link ?prev cp =
  let prev_digest, prev_seq, prev_stable =
    match prev with
    | None -> (genesis_digest, cp.cp_seq - 1, cp.cp_stable - List.length cp.cp_evicted)
    | Some p -> (p.cp_digest, p.cp_seq, p.cp_stable)
  in
  if cp.cp_seq <> prev_seq + 1 then
    Error (Printf.sprintf "checkpoint %d: expected seq %d" cp.cp_seq (prev_seq + 1))
  else if cp.cp_stable <> prev_stable + List.length cp.cp_evicted then
    Error
      (Printf.sprintf "checkpoint %d: stable count %d does not extend %d by %d evicted"
         cp.cp_seq cp.cp_stable prev_stable (List.length cp.cp_evicted))
  else
    let want = chain_digest prev_digest cp.cp_evicted cp.cp_live_order in
    if want <> cp.cp_digest then
      Error (Printf.sprintf "checkpoint %d: digest mismatch" cp.cp_seq)
    else Ok ()

let verify_chain cps =
  let rec go prev = function
    | [] -> Ok ()
    | cp :: rest -> (
        match verify_link ?prev cp with
        | Error _ as e -> e
        | Ok () -> go (Some cp) rest)
  in
  go None cps

(* --- introspection ------------------------------------------------------- *)

type stats = {
  events : int;
  live_txns : int;
  peak_live_txns : int;
  stable_csr : int;
  stable_t2 : int;
  committed : int;
  live_edges : int;
  checkpoints : int;
}

let stats t =
  {
    events = t.n_events;
    live_txns = Hashtbl.length t.txns;
    peak_live_txns = t.peak_live;
    stable_csr = t.csr_stable_n;
    stable_t2 = t.t2_stable_n;
    committed = t.n_committed;
    live_edges = Topo.edge_count t.csr + Topo.edge_count t.t2;
    checkpoints = t.n_checkpoints;
  }

let checkpoint_to_json cp =
  let tids l = Json.List (List.map (fun tid -> Json.Int tid) l) in
  Json.Obj
    [
      ("seq", Json.Int cp.cp_seq);
      ("events", Json.Int cp.cp_events);
      ("committed", Json.Int cp.cp_committed);
      ("stable", Json.Int cp.cp_stable);
      ("live", Json.Int cp.cp_live);
      ("evicted", tids cp.cp_evicted);
      ("live_order", tids cp.cp_live_order);
      ("digest", Json.Str cp.cp_digest);
      ( "certificate",
        match cp.cp_cert with
        | Some c -> Certificate.to_json c
        | None -> Json.Null );
      ( "certificate_t2",
        match cp.cp_cert_t2 with
        | Some c -> Certificate.to_json c
        | None -> Json.Null );
    ]

let pp_checkpoint ppf cp =
  Format.fprintf ppf
    "checkpoint #%d: %d events, %d committed (%d stable, %d live), digest %s"
    cp.cp_seq cp.cp_events cp.cp_committed cp.cp_stable cp.cp_live
    (String.sub cp.cp_digest 0 12)

(* --- feeding from a captured trace --------------------------------------- *)

let events_of_trace trace =
  let sites =
    List.map
      (fun info -> Site (info.Trace.sid, info.Trace.protocol))
      trace.Trace.sites
  in
  let globals =
    List.map (fun (tid, sids) -> Global (tid, sids)) trace.Trace.globals
  in
  (* Round-robin over the site schedules: per-site order (and hence op
     indexes) is preserved, cross-site interleaving exercises streaming. *)
  let queues =
    List.map (fun info -> (info.Trace.sid, ref info.Trace.ops)) trace.Trace.sites
  in
  let ops = ref [] in
  let remaining = ref true in
  while !remaining do
    remaining := false;
    List.iter
      (fun (sid, q) ->
        match !q with
        | [] -> ()
        | e :: rest ->
            q := rest;
            if rest <> [] then remaining := true;
            ops := Op (sid, e.Schedule.tid, e.Schedule.action) :: !ops)
      queues
  done;
  let sers = List.map (fun (tid, sid) -> Ser (tid, sid)) trace.Trace.ser_events in
  let tids = Hashtbl.create 64 in
  let note tid = if not (Hashtbl.mem tids tid) then Hashtbl.replace tids tid () in
  List.iter
    (fun info -> List.iter (fun e -> note e.Schedule.tid) info.Trace.ops)
    trace.Trace.sites;
  List.iter (fun (tid, _) -> note tid) trace.Trace.globals;
  List.iter (fun (tid, _) -> note tid) trace.Trace.ser_events;
  let ends =
    Hashtbl.fold (fun tid () acc -> tid :: acc) tids []
    |> List.sort compare
    |> List.map (fun tid -> End tid)
  in
  sites @ globals @ List.rev !ops @ sers @ ends

let of_trace trace =
  let assume_committed = Iset.is_empty (Trace.committed trace) in
  let t = create ~strict_end:true ~assume_committed () in
  feed_list t (events_of_trace trace);
  t
