(** Every experiment table that [mdbs experiments] prints, in print order.
    The CLI and the experiments golden test both read this list, so the
    two cannot drift. *)

val tables : (string * (unit -> Report.table)) list
(** [(id, build)] pairs; [build ()] runs the experiment. *)
