(* Static validation of Scenario specs against the paper's analytic
   resilience bounds (lib/analysis/bounds.ml), the square-partition
   geometry preconditions (lib/geometry/squares.ml), and plain parameter
   sanity — before a single simulation round runs. *)

(* Nominal device count; for [Grid_holes] an upper-bound estimate (the
   generator may reject some removals to preserve connectivity). *)
let node_count (spec : Scenario.spec) =
  match spec.deployment with
  | Scenario.Uniform n -> n
  | Scenario.Clustered { n; _ } -> n
  | Scenario.Grid -> (1 + int_of_float spec.map_w) * (1 + int_of_float spec.map_h)
  | Scenario.Grid_holes { width; height; holes } -> max 1 ((width * height) - holes)
  | Scenario.Corridor { rooms; room_w; room_h; hall_len } ->
    (rooms * room_w * room_h) + ((rooms - 1) * hall_len)
  | Scenario.Triangulated { cols; rows; _ } -> (cols + 1) * (rows + 1)
  | Scenario.Expander { n; _ } -> n
  | Scenario.Lattice { width; height } -> width * height

(* Expected number of devices inside one broadcast neighbourhood, from the
   deployment density and the radio's coverage area. *)
let neighbourhood_population (spec : Scenario.spec) =
  let area = spec.map_w *. spec.map_h in
  if area <= 0.0 then 0.0
  else begin
    let density = float_of_int (node_count spec) /. area in
    let coverage =
      match spec.radio with
      | Scenario.Friis | Scenario.Disk_l2 -> Float.pi *. spec.radius *. spec.radius
      | Scenario.Disk_linf -> 4.0 *. spec.radius *. spec.radius
    in
    density *. coverage
  end

let int_radius (spec : Scenario.spec) = max 1 (int_of_float (Float.round spec.radius))

let lint ~name (spec : Scenario.spec) =
  let diags = ref [] in
  (* Every float range check is written as [not (in range)], so that NaN
     fails it: each comparison with NaN is false. *)
  let emit severity field code message =
    diags := { Diagnostics.severity; loc = Field (name, field); code; message } :: !diags
  in
  (* The analytic preconditions below (square-partition sizing, Koo's
     impossibility, the per-neighbourhood tolerance bounds) are stated for
     the radio model on the square map; on an explicit graph family they
     have no meaning, so instead of evaluating them against ignored
     parameters the linter flags the attempt with its own code. *)
  let geometric = Scenario.geometric_deployment spec.deployment in
  let non_geometric_bound field bound =
    emit Warning field "non-geometric-bound"
      (Printf.sprintf
         "%s is a square-geometry bound; it does not apply to the explicit graph deployment \
          (radius and map size are ignored there)"
         bound)
  in
  (* --- map, radio, message, engine caps ------------------------------ *)
  if geometric then begin
    if not (spec.map_w > 0.0 && spec.map_h > 0.0) then
      emit Error "map_w" "map-dims"
        (Printf.sprintf "map is %gx%g; both sides must be positive" spec.map_w spec.map_h);
    if not (spec.radius > 0.0) then
      emit Error "radius" "radius"
        (Printf.sprintf "broadcast range %g must be positive" spec.radius)
    else if spec.radius >= Float.min spec.map_w spec.map_h && spec.map_w > 0.0 then
      emit Warning "radius" "radius"
        (Printf.sprintf "range %g covers the whole %gx%g map: the network is single-hop"
           spec.radius spec.map_w spec.map_h)
  end;
  if Bitvec.length spec.message = 0 then
    emit Error "message" "message" "empty broadcast message: nothing to authenticate";
  if spec.cap <= 0 then
    emit Error "cap" "cap" (Printf.sprintf "round cap %d: the engine will not run a single round" spec.cap)
  else if spec.cap < 10_000 then
    emit Warning "cap" "cap"
      (Printf.sprintf "round cap %d is very low; multi-hop broadcasts typically need 10k+ rounds"
         spec.cap);
  (* --- deployment ----------------------------------------------------- *)
  begin
    match spec.deployment with
    | Scenario.Uniform n ->
      if n <= 0 then emit Error "deployment" "deployment" "no devices deployed"
    | Scenario.Clustered { n; clusters; stddev } ->
      if n <= 0 then emit Error "deployment" "deployment" "no devices deployed";
      if clusters <= 0 then
        emit Error "deployment.clusters" "deployment" "clustered deployment needs >= 1 cluster";
      if not (stddev > 0.0) then
        emit Error "deployment.stddev" "deployment" "cluster scatter stddev must be positive";
      if clusters > n && n > 0 then
        emit Warning "deployment.clusters" "deployment"
          (Printf.sprintf "%d clusters for %d devices: most clusters will be empty" clusters n)
    | Scenario.Grid -> ()
    | Scenario.Grid_holes { width; height; holes } ->
      if width < 2 || height < 2 then
        emit Error "deployment" "deployment"
          (Printf.sprintf "%dx%d grid too small for holes (need at least 2x2)" width height);
      if holes < 0 || holes >= (width * height) - 1 then
        emit Error "deployment.holes" "deployment"
          (Printf.sprintf "%d holes in a %dx%d grid leaves no connected deployment" holes width
             height)
    | Scenario.Corridor { rooms; room_w; room_h; hall_len } ->
      if rooms < 1 then emit Error "deployment.rooms" "deployment" "corridor map needs >= 1 room";
      if room_w < 2 || room_h < 1 then
        emit Error "deployment" "deployment"
          (Printf.sprintf "rooms of %dx%d devices are degenerate (need >= 2x1)" room_w room_h);
      if hall_len < 1 then
        emit Error "deployment.hall_len" "deployment" "halls need at least one device"
    | Scenario.Triangulated { cols; rows; jitter } ->
      if cols < 1 || rows < 1 then
        emit Error "deployment" "deployment" "triangulation needs at least one cell";
      if not (jitter >= 0.0) then
        emit Error "deployment.jitter" "deployment" "jitter must be non-negative"
      else if jitter >= 0.25 then
        emit Warning "deployment.jitter" "deployment"
          (Printf.sprintf "jitter %g is clamped below 0.25 to preserve planarity" jitter)
    | Scenario.Expander { n; degree } ->
      if n < 4 then emit Error "deployment" "deployment" "expander needs at least 4 devices";
      if degree < 3 then
        emit Error "deployment.degree" "deployment"
          (Printf.sprintf "expander degree %d: need >= 3 (ring plus at least one matching)" degree)
    | Scenario.Lattice { width; height } ->
      if width < 2 || height < 2 then
        emit Error "deployment" "deployment"
          (Printf.sprintf "%dx%d lattice is degenerate (need at least 2x2)" width height)
  end;
  (* --- channel --------------------------------------------------------- *)
  if not (spec.channel.Channel.loss_prob >= 0.0 && spec.channel.Channel.loss_prob < 1.0) then
    emit Error "channel.loss_prob" "channel"
      (Printf.sprintf "loss probability %g outside [0, 1)" spec.channel.Channel.loss_prob);
  if not (spec.channel.Channel.capture_ratio >= 1.0) then
    emit Error "channel.capture_ratio" "channel"
      (Printf.sprintf "capture ratio %g < 1 decodes weaker-than-interference signals"
         spec.channel.Channel.capture_ratio);
  (* --- protocol-specific geometry and parameters ---------------------- *)
  let iradius = int_radius spec in
  begin
    match spec.protocol with
    | Scenario.Neighbor_watch { votes } ->
      if votes < 1 then
        emit Error "protocol.votes" "votes" (Printf.sprintf "voting threshold %d must be >= 1" votes)
      else if votes > 2 then
        emit Warning "protocol.votes" "votes"
          (Printf.sprintf "%d-voting is beyond the paper's 1- and 2-voting analysis" votes);
      (* Square-partition preconditions: every device of a square must hear
         every device of the 8 adjacent squares, else the watch cannot veto
         and streams cannot cross squares.  Worst case between diagonal
         neighbours is 2*sqrt(2)*side (L2) or 2*side (L-inf). *)
      if not geometric then
        non_geometric_bound "square_side" "the square-partition mutual-range sizing"
      else begin
        let side =
          match spec.square_side with
          | Some side -> side
          | None -> Squares.simulation_side ~radius:spec.radius
        in
        if not (side > 0.0) then
          emit Error "square_side" "square-geometry"
            (Printf.sprintf "square side %g must be positive" side)
        else begin
          let strict_limit, hard_limit =
            match spec.radio with
            | Scenario.Disk_linf -> (spec.radius /. 2.0, (spec.radius +. 1.0) /. 2.0)
            | Scenario.Friis | Scenario.Disk_l2 ->
              (spec.radius /. (2.0 *. Float.sqrt 2.0), spec.radius /. 2.0)
          in
          if side > hard_limit +. 1e-9 then
            emit Error "square_side" "square-geometry"
              (Printf.sprintf
                 "square side %g: adjacent watch squares are out of mutual range (limit %g for \
                  R=%g)"
                 side hard_limit spec.radius)
          else if side > strict_limit +. 1e-9 then
            emit Warning "square_side" "square-geometry"
              (Printf.sprintf
                 "square side %g exceeds the guaranteed mutual-range sizing %g; diagonal square \
                  neighbours may not decode each other"
                 side strict_limit);
          let area = spec.map_w *. spec.map_h in
          if area > 0.0 then begin
            let per_square = float_of_int (node_count spec) /. area *. side *. side in
            if per_square < 1.0 then
              emit Warning "square_side" "sparse-squares"
                (Printf.sprintf
                   "expected %.2f devices per watch square: empty squares break the relay chain"
                   per_square)
          end
        end
      end;
      if spec.heard_relay_limit <> None then
        emit Info "heard_relay_limit" "unused-field"
          "heard_relay_limit only applies to MultiPathRB; ignored by NeighborWatchRB"
    | Scenario.Multi_path { tolerance } ->
      if tolerance < 0 then
        emit Error "protocol.tolerance" "tolerance"
          (Printf.sprintf "tolerance %d must be >= 0" tolerance)
      else if not geometric then begin
        if tolerance > 0 then
          non_geometric_bound "protocol.tolerance" "Koo's impossibility bound t < R(2R+1)/2"
      end
      else begin
        let koo = Bounds.koo_bound ~radius:iradius in
        if tolerance >= koo then
          emit Error "protocol.tolerance" "koo-impossibility"
            (Printf.sprintf
               "tolerance t=%d >= R(2R+1)/2 = %d for R=%d: reliable broadcast is impossible \
                (Koo's bound)"
               tolerance koo iradius)
      end;
      begin
        match spec.heard_relay_limit with
        | Some k when k <= 0 ->
          emit Error "heard_relay_limit" "relay-limit"
            (Printf.sprintf "HEARD relay cap %d disables relaying entirely" k)
        | Some _ | None -> ()
      end;
      if spec.square_side <> None then
        emit Info "square_side" "unused-field"
          "square_side only applies to NeighborWatchRB; ignored by MultiPathRB"
    | Scenario.Epidemic ->
      if spec.square_side <> None then
        emit Info "square_side" "unused-field" "square_side is ignored by the epidemic baseline";
      if spec.heard_relay_limit <> None then
        emit Info "heard_relay_limit" "unused-field"
          "heard_relay_limit is ignored by the epidemic baseline"
    | Scenario.Certified { tolerance } ->
      if tolerance < 0 then
        emit Error "protocol.tolerance" "tolerance"
          (Printf.sprintf "tolerance %d must be >= 0" tolerance);
      if spec.square_side <> None then
        emit Info "square_side" "unused-field" "square_side is ignored by CPA";
      if spec.heard_relay_limit <> None then
        emit Info "heard_relay_limit" "unused-field" "heard_relay_limit is ignored by CPA"
  end;
  (* --- fault model vs the analytic tolerance bounds -------------------- *)
  let check_fraction field fraction =
    if not (fraction >= 0.0 && fraction <= 1.0) then
      emit Error field "fraction" (Printf.sprintf "fraction %g outside [0, 1]" fraction)
    else if fraction > 0.5 then
      emit Warning field "fraction"
        (Printf.sprintf "%g%% of devices faulty: honest devices are a minority" (100.0 *. fraction))
  in
  begin
    match spec.faults with
    | Scenario.No_faults -> ()
    | Scenario.Crash fraction -> check_fraction "faults.fraction" fraction
    | Scenario.Jamming { fraction; budget; probability }
    | Scenario.Selective_jam { fraction; budget; probability } ->
      check_fraction "faults.fraction" fraction;
      if budget < 0 then
        emit Info "faults.budget" "budget" "negative budget: jammers never run out of broadcasts";
      if not (probability >= 0.0 && probability <= 1.0) then
        emit Error "faults.probability" "probability"
          (Printf.sprintf "jamming probability %g outside [0, 1]" probability)
      else if probability = 0.0 && budget <> 0 then
        emit Info "faults.probability" "probability" "jamming probability 0: the jammers never fire"
    | Scenario.Lying fraction ->
      check_fraction "faults.fraction" fraction;
      if fraction > 0.0 && fraction <= 1.0 then begin
        if not geometric then
          (* The per-neighbourhood tolerance comparison needs the density ×
             coverage-area estimate, which only exists on the square map. *)
          non_geometric_bound "faults.fraction"
            "the per-neighbourhood Byzantine tolerance estimate (⌈R/2⌉² and kin)"
        else begin
          let expected_byz = neighbourhood_population spec *. fraction in
          let tolerance, bound_name =
            match spec.protocol with
            | Scenario.Neighbor_watch { votes } when votes >= 2 ->
              (Some (Bounds.two_voting_tolerance ~radius:iradius), "t < R^2/2 (2-voting watch)")
            | Scenario.Neighbor_watch _ ->
              ( Some (Bounds.neighbor_watch_tolerance ~radius:iradius),
                "t < ceil(R/2)^2 (NeighborWatchRB)" )
            | Scenario.Multi_path { tolerance } ->
              (Some tolerance, "the configured MultiPathRB tolerance")
            | Scenario.Certified { tolerance } -> (Some tolerance, "the configured CPA tolerance")
            | Scenario.Epidemic -> (None, "")
          in
          match tolerance with
          | Some t when expected_byz > float_of_int t ->
            emit Warning "faults.fraction" "byz-tolerance"
              (Printf.sprintf
                 "expected %.1f Byzantine devices per neighbourhood exceeds the analytic bound %d \
                  (%s, R=%d): corrupt deliveries become possible"
                 expected_byz t bound_name iradius)
          | Some _ -> ()
          | None ->
            emit Info "protocol" "byz-tolerance"
              "the epidemic baseline is unauthenticated: any lying device corrupts deliveries"
        end
      end
  end;
  List.rev !diags
