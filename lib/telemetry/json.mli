(** Minimal self-contained JSON reader/writer.

    Used to read sweep workers' stats files and the end-to-end
    benchmark's records, by the metrics sampler to append JSONL
    time-series, and to validate Chrome trace_event exports.  Numbers are represented as
    floats — every JSON producer in this repository emits numbers
    that fit. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse a complete JSON document.  [Error msg] carries a byte
    offset and a description; trailing non-whitespace is an error. *)

val member : t -> string -> t option
(** [member j key] is the value bound to [key] when [j] is an object. *)

val to_float : t -> float option
val to_string_opt : t -> string option
val to_list : t -> t list option

val keys : t -> string list
(** Keys of an object in document order; [[]] for non-objects. *)

val escape : string -> string
(** Escape a string for embedding between double quotes in JSON. *)

val to_string : ?pretty:bool -> t -> string
(** Serialize.  [~pretty:true] uses two-space indentation.  Non-finite
    numbers render as [null] (JSON has no NaN/infinity). *)
