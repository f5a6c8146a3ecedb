open Mdbs_model
module Iset = Mdbs_util.Iset

(* The record type is shared with the on-disk group-commit WAL
   (lib/storage_lsm), so the logical log and the durable log carry the
   same stream with no conversion layer between them. *)
type record = Mdbs_storage_lsm.Group_wal.record =
  | Load of Item.t * int
  | Begin of Types.tid
  | Write of Types.tid * Item.t * int * int
  | Prepared of Types.tid
  | Committed of Types.tid
  | Aborted of Types.tid

type t = { mutable rev_records : record list; mutable count : int }

let create () = { rev_records = []; count = 0 }

let append t r =
  t.rev_records <- r :: t.rev_records;
  t.count <- t.count + 1

let records t = List.rev t.rev_records

let length t = t.count

type analysis = {
  committed : Iset.t;
  aborted : Iset.t;
  in_doubt : Iset.t;
  losers : Iset.t;
}

let analyze t =
  let begun = ref Iset.empty in
  let committed = ref Iset.empty in
  let aborted = ref Iset.empty in
  let prepared = ref Iset.empty in
  List.iter
    (fun r ->
      match r with
      | Load _ -> ()
      | Begin tid -> begun := Iset.add tid !begun
      | Write (tid, _, _, _) -> begun := Iset.add tid !begun
      | Prepared tid -> prepared := Iset.add tid !prepared
      | Committed tid -> committed := Iset.add tid !committed
      | Aborted tid -> aborted := Iset.add tid !aborted)
    (records t);
  let resolved = Iset.union !committed !aborted in
  let in_doubt = Iset.diff !prepared resolved in
  let losers = Iset.diff (Iset.diff !begun resolved) in_doubt in
  { committed = !committed; aborted = !aborted; in_doubt; losers }

let recovered_state t =
  let { losers; _ } = analyze t in
  let state = Hashtbl.create 64 in
  (* Redo phase: replay loads and every write in log order. Aborts that
     completed before the crash logged compensation writes, so their
     effects replay away naturally; only the losers — active at the crash,
     never compensated — need the undo phase. *)
  List.iter
    (fun r ->
      match r with
      | Load (item, v) -> Hashtbl.replace state item v
      | Write (_, item, _, after) -> Hashtbl.replace state item after
      | Begin _ | Prepared _ | Committed _ | Aborted _ -> ())
    (records t);
  (* Undo phase: roll the losers back, newest write first. *)
  List.iter
    (fun r ->
      match r with
      | Write (tid, item, before, _) when Iset.mem tid losers ->
          Hashtbl.replace state item before
      | Load _ | Write _ | Begin _ | Prepared _ | Committed _ | Aborted _ -> ())
    (List.rev (records t));
  Hashtbl.fold (fun item v acc -> (item, v) :: acc) state []
  |> List.sort (fun (a, _) (b, _) -> Item.compare a b)

let undo_entries t tid =
  List.filter_map
    (fun r ->
      match r with
      | Write (owner, item, before, _) when owner = tid -> Some (item, before)
      | Load _ | Write _ | Begin _ | Prepared _ | Committed _ | Aborted _ -> None)
    t.rev_records
(* rev_records is newest-first, which is the undo order. *)

let written_items t tid =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun r ->
      match r with
      | Write (owner, item, _, _) when owner = tid ->
          if Hashtbl.mem seen item then None
          else begin
            Hashtbl.replace seen item ();
            Some item
          end
      | Load _ | Write _ | Begin _ | Prepared _ | Committed _ | Aborted _ -> None)
    (records t)

let pp_record ppf = function
  | Load (item, v) -> Format.fprintf ppf "load %a=%d" Item.pp item v
  | Begin tid -> Format.fprintf ppf "begin T%d" tid
  | Write (tid, item, before, after) ->
      Format.fprintf ppf "write T%d %a %d->%d" tid Item.pp item before after
  | Prepared tid -> Format.fprintf ppf "prepared T%d" tid
  | Committed tid -> Format.fprintf ppf "committed T%d" tid
  | Aborted tid -> Format.fprintf ppf "aborted T%d" tid
