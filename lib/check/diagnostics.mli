(** The one diagnostic shape every analyzer in [lib/check] reports, with
    its rendering and the allowlist hygiene the source-level passes
    share.

    A diagnostic is located either in the source tree ([file:line]) or
    in a scenario spec ([scenario.field]).  Its text form is
    [location: severity: message [code]]; its JSON form has the keys
    [severity], then [file]/[line] or [scenario]/[field], then [code]
    and [message]. *)

type severity = Error | Warning | Info

type location =
  | Line of string * int  (** repo-relative file and 1-based line *)
  | Field of string * string  (** scenario name and offending spec field *)

type diagnostic = {
  severity : severity;
  loc : location;
  code : string;  (** stable short code, e.g. ["hashtbl-order"] *)
  message : string;
}

val to_string : diagnostic -> string
val to_json : diagnostic -> Json.t
val has_errors : diagnostic list -> bool
val count : severity -> diagnostic list -> int

val sort : diagnostic list -> diagnostic list
(** Stable sort by file, then line. *)

(** {1 Paths and allowlists}

    An allowlist entry is [(audited file, code, definition line)]: the
    file whose finding it suppresses, the code suppressed, and the line
    of the analyzer's own module that defines it. *)

val in_dir : string -> string -> bool
(** [in_dir dir path]: is [path] inside [dir] (repo-root relative), under
    both "lib/run/pool.ml" and absolute/sandboxed spellings? *)

val allowed :
  (string * string * int) list -> string -> string -> (string * string * int) option
(** [allowed allowlist path code]: the entry suppressing [code] at [path]. *)

val unused_allowlist :
  file:string ->
  linted:string list ->
  used:(string * string * int) list ->
  (string * string * int) list ->
  diagnostic list
(** One [unused-allowlist] error for every entry that is not in [used]
    although its audited file is among [linted], located at the line
    that defines it in [file]: that is the line to delete.  Entries for
    files outside [linted] are not judged, so linting a subtree does not
    accuse the rest of the allowlist. *)
