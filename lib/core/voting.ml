type origin = int * int
type item = { origin : origin; value : bool; points : Point.t list }

let distinct_origins ~value items =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun item -> if item.value = value then Hashtbl.replace seen item.origin ())
    items;
  Hashtbl.length seen

(* The window is the [2 radius]-sided square whose left edge is [ax]'s x
   and whose bottom edge is [ay]'s y.  The anchors travel as the points
   they come from, and the side is computed here: a float passed to a
   function that is not inlined is boxed on every call. *)
let window_inside ~radius ~(ax : Point.t) ~(ay : Point.t) (p : Point.t) =
  let size = 2.0 *. radius in
  p.x >= ax.x -. 1e-9 && p.x <= ax.x +. size +. 1e-9 && p.y >= ay.y -. 1e-9
  && p.y <= ay.y +. size +. 1e-9

let rec all_inside ~radius ~ax ~ay points =
  match points with
  | [] -> true
  | p :: rest -> window_inside ~radius ~ax ~ay p && all_inside ~radius ~ax ~ay rest

(* The two ints compared explicitly: polymorphic [=] on the pair would be a
   [compare] call per test. *)
let same_origin ((a, b) : origin) ((c, d) : origin) = a = c && b = d

let rec fits_later origin items ~radius ~ax ~ay =
  match items with
  | [] -> false
  | item :: rest ->
    (same_origin item.origin origin && all_inside ~radius ~ax ~ay item.points)
    || fits_later origin rest ~radius ~ax ~ay

(* Distinct origins with an item inside the window, with no table: an item
   counts when it fits and no later item of its origin does. *)
let rec count_in_window items ~radius ~ax ~ay =
  match items with
  | [] -> 0
  | item :: rest ->
    let last_fit =
      all_inside ~radius ~ax ~ay item.points && not (fits_later item.origin rest ~radius ~ax ~ay)
    in
    (if last_fit then 1 else 0) + count_in_window rest ~radius ~ax ~ay

(* The candidate anchors walk the evidence points in place — a (points,
   pending items) cursor pair instead of materialized coordinate lists, so
   the scan allocates nothing.  Duplicate coordinates retest the same
   window; the scan is an [exists], so the result is unaffected. *)
let rec scan_ys voting ~radius ~need ~ax points pending =
  match points with
  | ay :: rest ->
    count_in_window voting ~radius ~ax ~ay >= need || scan_ys voting ~radius ~need ~ax rest pending
  | [] -> (
    match pending with
    | [] -> false
    | item :: rest -> scan_ys voting ~radius ~need ~ax item.points rest)

let rec scan_xs voting ~radius ~need points pending =
  match points with
  | ax :: rest ->
    scan_ys voting ~radius ~need ~ax [] voting || scan_xs voting ~radius ~need rest pending
  | [] -> (
    match pending with
    | [] -> false
    | item :: rest -> scan_xs voting ~radius ~need item.points rest)

(* The window scan proper, over items already filtered to one value.  The
   result does not depend on the order of [voting].  A minimal window has
   its left edge at some point's x and its bottom edge at some point's y,
   so anchoring candidates at every such pair is complete.  The scan is
   reachable from the protocol hot path (Voting.Index.decide), so every
   helper above is a top-level function, and test_alloc holds it at 0
   words per call. *)
let window_scan ~radius ~need voting = scan_xs voting ~radius ~need [] voting

let quorum ~radius ~need ~value items =
  let voting = List.filter (fun item -> item.value = value) items in
  if need <= 0 then true
  else if distinct_origins ~value voting < need then false
  else window_scan ~radius ~need voting

module Reference = struct
  (* An independently derived quorum used by the Vote_check verifier to
     cross-validate [quorum] and [Index.decide].  Instead of sliding
     candidate windows anchored at evidence coordinates, it works in the
     dual space: the window anchors admitting one item form an axis-aligned
     rectangle, and a set of origins shares a window iff a common anchor
     point lies in one rectangle per origin.  Closed rectangles intersect
     iff the corner (max of left edges, max of bottom edges) is common, so
     testing the pairwise corners of the rectangles is complete. *)

  let eps = 1e-9

  type box = { xlo : float; xhi : float; ylo : float; yhi : float }

  (* Anchors (x0, y0) of the [size] x [size] windows containing every point
     of one item; [None] when the points alone exceed the window.  An item
     without points fits every window (mirroring [count_in_window]). *)
  let anchor_box ~size points =
    match points with
    | [] -> Some { xlo = neg_infinity; xhi = infinity; ylo = neg_infinity; yhi = infinity }
    | (first : Point.t) :: rest ->
      let xmin = ref first.x and xmax = ref first.x in
      let ymin = ref first.y and ymax = ref first.y in
      List.iter
        (fun (p : Point.t) ->
          if p.x < !xmin then xmin := p.x;
          if p.x > !xmax then xmax := p.x;
          if p.y < !ymin then ymin := p.y;
          if p.y > !ymax then ymax := p.y)
        rest;
      let b = { xlo = !xmax -. size; xhi = !xmin; ylo = !ymax -. size; yhi = !ymin } in
      if b.xlo > b.xhi +. eps || b.ylo > b.yhi +. eps then None else Some b

  let contains b ~x ~y =
    x >= b.xlo -. eps && x <= b.xhi +. eps && y >= b.ylo -. eps && y <= b.yhi +. eps

  let quorum ~radius ~need ~value items =
    if need <= 0 then true
    else begin
      let size = 2.0 *. radius in
      let boxed =
        List.filter_map
          (fun item ->
            if item.value = value then
              match anchor_box ~size item.points with
              | Some b -> Some (item.origin, b)
              | None -> None
            else None)
          items
      in
      let finite v = Float.is_finite v in
      let corners axis = List.sort_uniq Float.compare (List.filter finite (List.map axis boxed)) in
      let xs = match corners (fun (_, b) -> b.xlo) with [] -> [ 0.0 ] | xs -> xs in
      let ys = match corners (fun (_, b) -> b.ylo) with [] -> [ 0.0 ] | ys -> ys in
      let origins_at ~x ~y =
        let seen = Hashtbl.create 16 in
        List.iter
          (fun (origin, b) -> if contains b ~x ~y then Hashtbl.replace seen origin ())
          boxed;
        Hashtbl.length seen
      in
      List.exists (fun x -> List.exists (fun y -> origins_at ~x ~y >= need) ys) xs
    end
end

module Tally = struct
  type t = { mutable pro : int; mutable con : int }

  let create () = { pro = 0; con = 0 }

  let reset t =
    t.pro <- 0;
    t.con <- 0

  let add t value = if value then t.pro <- t.pro + 1 else t.con <- t.con + 1
  let count t ~value = if value then t.pro else t.con
end

module Index = struct
  type t = {
    seen : (item, unit) Hashtbl.t;  (* replay / duplicate suppression *)
    (* one origin table per value instead of a (value, origin) key: [add] is
       on the protocol hot path and must not box a tuple per call *)
    origins_for : (origin, unit) Hashtbl.t;
    origins_against : (origin, unit) Hashtbl.t;
    votes : Tally.t;  (* distinct origins per value, maintained on add *)
    mutable items_for : item list;
    mutable items_against : item list;
    mutable dirty : bool;
  }

  let create () =
    {
      seen = Hashtbl.create 8;
      origins_for = Hashtbl.create 8;
      origins_against = Hashtbl.create 8;
      votes = Tally.create ();
      items_for = [];
      items_against = [];
      dirty = false;
    }

  let add t item =
    if not (Hashtbl.mem t.seen item) then begin
      Hashtbl.add t.seen item ();
      let origins = if item.value then t.origins_for else t.origins_against in
      if not (Hashtbl.mem origins item.origin) then begin
        Hashtbl.add origins item.origin ();
        Tally.add t.votes item.value
      end;
      if item.value then t.items_for <- item :: t.items_for
      else t.items_against <- item :: t.items_against;
      t.dirty <- true
    end

  let votes t ~value = Tally.count t.votes ~value
  let items t ~value = if value then t.items_for else t.items_against
  let all_items t = t.items_for @ t.items_against
  let dirty t = t.dirty
  let clear_dirty t = t.dirty <- false

  let decide t ~radius ~need ~value =
    if need <= 0 then true
    else if votes t ~value < need then false
    else window_scan ~radius ~need (items t ~value)
end
