(** Final status of a transaction submitted to the service runtime.

    The paper-level {!Mdbs_core.Gtm.status} knows only commit and abort; the
    service runtime adds a third verdict, {!Shed}: the transaction was
    refused by admission control {e before} it acquired any per-site state.
    A shed is not an abort — no site ever saw the transaction, nothing was
    rolled back, and it does not appear in the certified trace — it is a
    load signal telling the client to back off rather than retry hot. *)

type t =
  | Committed
  | Aborted of string  (** Rolled back everywhere; the reason string. *)
  | Shed
      (** Refused at admission (overload): no per-site state was ever
          acquired, nothing appears in the trace. Back off before retrying. *)

val to_string : t -> string
