(** Minimal JSON reader/writer (no dependencies).

    Benchmark results are serialized with this module so downstream tooling
    can consume `BENCH_results.json` without scraping the ASCII tables, and
    parsed back by `securebit_cli compare` to check one against another.
    Output is deterministic: field order is preserved, floats print as the
    shortest decimal that round-trips, and non-finite floats (which JSON
    cannot represent) become [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering (no whitespace). *)

val to_string_pretty : t -> string
(** Two-space-indented rendering with a trailing newline, for files meant
    to be read by humans as well as machines. *)

val number : float -> string
(** The numeric token used for a float: shortest round-tripping decimal
    (integer-valued floats keep a [.0]), ["null"] for NaN and infinities. *)

val of_string : string -> (t, string) result
(** Strict recursive-descent parser for the JSON this module writes (and
    standard JSON generally): numbers without [.eE] parse as [Int], others
    as [Float]; [\u] escapes decode to UTF-8, surrogate pairs combined.
    [Error] carries a message with the byte offset of the failure. *)

val member : string -> t -> t option
(** Field lookup; [None] on non-objects and missing keys. *)

val to_float_opt : t -> float option
(** [Int] and [Float] as a float; [None] otherwise. *)

val to_string_opt : t -> string option
val to_list_opt : t -> t list option
