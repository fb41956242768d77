(* One diagnostic record for every analyzer of lib/check, its text and
   JSON renderings, and the path matching and allowlist hygiene shared by
   the source-level passes (Source_lint, Share_lint, Alloc_lint). *)

type severity = Error | Warning | Info
type location = Line of string * int | Field of string * string

type diagnostic = { severity : severity; loc : location; code : string; message : string }

let severity_label : severity -> string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let to_string d =
  let loc =
    match d.loc with
    | Line (file, line) -> Printf.sprintf "%s:%d" file line
    | Field (scenario, field) -> scenario ^ "." ^ field
  in
  Printf.sprintf "%s: %s: %s [%s]" loc (severity_label d.severity) d.message d.code

let to_json d =
  let loc =
    match d.loc with
    | Line (file, line) -> [ ("file", Json.String file); ("line", Json.Int line) ]
    | Field (scenario, field) ->
      [ ("scenario", Json.String scenario); ("field", Json.String field) ]
  in
  Json.Obj
    ((("severity", Json.String (severity_label d.severity)) :: loc)
    @ [ ("code", Json.String d.code); ("message", Json.String d.message) ])

let count severity diags = List.length (List.filter (fun d -> d.severity = severity) diags)
let has_errors diags = List.exists (fun d -> d.severity = Error) diags

let sort diags =
  let key d =
    match d.loc with Line (file, line) -> (file, line) | Field (scenario, _) -> (scenario, 0)
  in
  List.stable_sort
    (fun a b ->
      let fa, la = key a and fb, lb = key b in
      match String.compare fa fb with 0 -> Int.compare la lb | c -> c)
    diags

(* Is [path] inside directory [dir] (given relative to the repo root)?
   Matches both "lib/run/pool.ml" and absolute/sandboxed spellings. *)
let in_dir dir path =
  String.starts_with ~prefix:(dir ^ "/") path
  ||
  let needle = "/" ^ dir ^ "/" in
  let ln = String.length needle and lp = String.length path in
  let rec scan i = i + ln <= lp && (String.sub path i ln = needle || scan (i + 1)) in
  scan 0

(* Does an allowlist entry (repo-relative file path) name [path]? *)
let path_matches ~entry path = path = entry || String.ends_with ~suffix:("/" ^ entry) path

let allowed allowlist path code =
  List.find_opt (fun (file, c, _) -> c = code && path_matches ~entry:file path) allowlist

(* An allowlist entry that suppresses nothing is itself a defect: stale
   entries hide future regressions behind an audit that no longer applies.
   Only entries whose file was actually linted are judged. *)
let unused_allowlist ~file ~linted ~used allowlist =
  List.filter_map
    (fun ((audited, code, line) as entry) ->
      if List.mem entry used || not (List.exists (path_matches ~entry:audited) linted) then None
      else
        Some
          {
            severity = Error;
            loc = Line (file, line);
            code = "unused-allowlist";
            message =
              Printf.sprintf
                "allowlist entry (%s, %s) suppressed no diagnostic; delete the stale audit at %s:%d"
                audited code file line;
          })
    allowlist
