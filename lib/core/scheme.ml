open Mdbs_model

type effect_ =
  | Submit_ser of Types.gid * Types.sid
  | Forward_ack of Types.gid * Types.sid
  | Abort_global of Types.gid

type wakeup = Wake_ser_at of Types.sid | Wake_fins | Wake_all

type t = {
  name : string;
  cond : Queue_op.t -> bool;
  act : Queue_op.t -> effect_ list;
  wakeups : Queue_op.t -> wakeup list;
  steps : unit -> int;
  describe : unit -> string;
  blockers : Queue_op.t -> Types.gid list;
  explain : Queue_op.t -> string;
}

let pp_effect ppf = function
  | Submit_ser (gid, site) -> Format.fprintf ppf "submit ser_%d(G%d)" site gid
  | Forward_ack (gid, site) -> Format.fprintf ppf "forward ack(ser_%d(G%d))" site gid
  | Abort_global gid -> Format.fprintf ppf "abort G%d" gid
