(** A minimal JSON document tree, printer and parser.

    The analysis pass emits certificates, counterexamples and diagnostics in
    a machine-readable form; this module is the (dependency-free) encoder.
    Output is deterministic: object fields print in the order given. The
    parser ({!of_string}) reads the same documents back — it exists so
    checkers like [test/telemetry_check] can re-read telemetry windows
    without an external JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val pp : Format.formatter -> t -> unit
(** Pretty-printed with two-space indentation. *)

val to_string : t -> string

val to_string_compact : t -> string
(** One line, no layout whitespace — for line-oriented streams (JSONL,
    e.g. the telemetry window log) where one document is one line. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document. Numbers without a fraction or exponent
    parse as [Int] (falling back to [Float] beyond [int] range), everything
    else numeric as [Float]; [Error] carries a message with the byte
    offset. Round-trips everything {!to_string} emits. *)

(** {1 Accessors}

    Shape-checking helpers for walking parsed documents; each returns
    [None] on a constructor mismatch (and {!member} also on a missing
    key). *)

val member : string -> t -> t option

val number : t -> float option
(** [Int] and [Float] both read as float. *)

val string_val : t -> string option

val list_val : t -> t list option
