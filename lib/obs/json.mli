(** Minimal JSON tree, printer and parser (no external dependency).

    Ints and floats are distinct constructors so counter values round-trip
    exactly.  The parser accepts the subset of JSON the exporter and the
    report writers emit (which is standard JSON; non-ASCII [\u] escapes
    are decoded to UTF-8 best-effort). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
val to_channel : out_channel -> t -> unit
val of_string : string -> t
(** @raise Parse_error on malformed input. *)

val member : string -> t -> t option
(** Object field lookup; [None] on a non-object or missing key. *)

val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option

val diff : ?path:string -> t -> t -> string option
(** Structural compare.  [None] when equal; otherwise the path of the
    first differing leaf under [path], e.g.
    ["service.ramp[2].p999: 127036 ≠ 127037"] (expected ≠ actual), or
    ["k: missing"] / ["k: unexpected"] for a key or list element present on
    one side only.  Object key order is not significant; [Int 1] and
    [Float 1.0] differ. *)
