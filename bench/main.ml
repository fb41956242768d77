(* Bechamel microbenchmarks: one [Test.make] per experiment id (a
   miniature instance of that table's inner simulation) and one per
   protocol primitive, printed as one OLS time-per-run table.

   The registry benchmark that regenerates the paper's tables and writes
   BENCH_results.json is `securebit_cli bench`; `securebit_cli compare`
   gates a results file against BENCH_baseline.json. *)

open Bechamel
open Toolkit

let tiny_spec protocol =
  {
    Scenario.default with
    map_w = 8.0;
    map_h = 8.0;
    deployment = Scenario.Uniform 80;
    radius = 3.0;
    message = Bitvec.of_string "101";
    protocol;
    heard_relay_limit = Some 4;
  }

let run_spec spec = ignore (Scenario.summarize (Scenario.run spec))

(* One kernel per experiment id: a miniature instance of the simulation at
   the heart of that table/figure. *)
let experiment_kernels =
  [
    ( "E1.fig5-crash",
      fun () ->
        run_spec
          { (tiny_spec (Scenario.Neighbor_watch { votes = 1 })) with
            deployment = Scenario.Uniform 60 } );
    ( "E2.jamming",
      fun () ->
        run_spec
          { (tiny_spec (Scenario.Neighbor_watch { votes = 1 })) with
            faults = Scenario.Jamming { fraction = 0.1; budget = 20; probability = 0.2 } } );
    ( "E3.fig6-lying",
      fun () ->
        run_spec
          { (tiny_spec (Scenario.Neighbor_watch { votes = 1 })) with
            faults = Scenario.Lying 0.05 } );
    ( "E4.fig7-density",
      fun () ->
        run_spec
          { (tiny_spec (Scenario.Neighbor_watch { votes = 2 })) with
            faults = Scenario.Lying 0.05 } );
    ( "E5.clustered",
      fun () ->
        run_spec
          { (tiny_spec (Scenario.Neighbor_watch { votes = 1 })) with
            deployment = Scenario.Clustered { n = 80; clusters = 4; stddev = 1.5 } } );
    ( "E6.mapsize",
      fun () ->
        run_spec
          { (tiny_spec (Scenario.Neighbor_watch { votes = 1 })) with
            message = Bitvec.of_string "10110" } );
    ("E7.epidemic", fun () -> run_spec (tiny_spec Scenario.Epidemic));
    ( "E8.theory-grid",
      fun () ->
        run_spec
          {
            (tiny_spec (Scenario.Neighbor_watch { votes = 1 })) with
            deployment = Scenario.Grid;
            radio = Scenario.Disk_linf;
            radius = 2.0;
            square_side = Some 1.0;
          } );
    ( "MP.multipath",
      fun () ->
        run_spec
          {
            (tiny_spec (Scenario.Multi_path { tolerance = 1 })) with
            map_w = 6.0;
            map_h = 6.0;
            deployment = Scenario.Uniform 40;
            radius = 2.0;
            message = Bitvec.of_string "10";
          } );
    ( "G1.graphs",
      fun () ->
        run_spec
          {
            (tiny_spec (Scenario.Multi_path { tolerance = 1 })) with
            deployment = Scenario.Grid_holes { width = 8; height = 6; holes = 5 };
            message = Bitvec.of_string "10";
          } );
  ]

(* Protocol primitives, benchmarked in isolation. *)
let primitive_kernels =
  let payload = Bitvec.random (Rng.create 99) 256 in
  [
    ( "prim.two-bit-exchange",
      fun () ->
        let sender = Two_bit.Sender.create ~b1:true ~b2:false in
        let receiver = Two_bit.Receiver.create () in
        for phase = 0 to 5 do
          let s_tx = Two_bit.Sender.act sender ~phase in
          let r_tx = Two_bit.Receiver.act receiver ~phase in
          Two_bit.Sender.observe sender ~phase ~activity:r_tx;
          Two_bit.Receiver.observe receiver ~phase ~activity:s_tx
        done;
        ignore (Two_bit.Sender.outcome sender);
        ignore (Two_bit.Receiver.outcome receiver) );
    ( "prim.one-hop-64bit-stream",
      fun () ->
        let sender = One_hop.Sender.create () in
        let receiver = One_hop.Receiver.create () in
        for i = 0 to 63 do
          One_hop.Sender.push sender (i land 3 = 1)
        done;
        while One_hop.Sender.has_current sender do
          let parity, data = One_hop.Sender.current sender in
          One_hop.Receiver.push_two_bit receiver ~parity ~data;
          One_hop.Sender.advance sender
        done );
    ( "prim.voting-quorum-30",
      let items =
        List.init 30 (fun i ->
            {
              Voting.origin = (i, 2 * i);
              value = true;
              points = [ Point.make (float_of_int (i mod 7)) (float_of_int (i mod 5)) ];
            })
      in
      fun () -> ignore (Voting.quorum ~radius:4.0 ~need:8 ~value:true items) );
    ( "prim.frame-roundtrip",
      let codec = Frame.codec ~msg_len:16 ~coord_range:8.0 ~coord_step:0.5 in
      fun () ->
        let frame = Frame.Heard { index = 7; value = true; cause = (3, -2) } in
        match Frame.decode codec (Frame.encode codec frame) with
        | Some _ -> ()
        | None -> assert false );
    ("prim.digest-256bit", fun () -> ignore (Bitvec.digest ~size:8 payload));
  ]

let tests =
  List.map
    (fun (name, f) -> Test.make ~name (Staged.stage f))
    (experiment_kernels @ primitive_kernels)

let microbenchmarks () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:30 ~quota:(Time.second 0.4) ~kde:None ~sampling:(`Linear 1)
      ~stabilize:false ()
  in
  let table =
    Table.create ~title:"Bechamel microbenchmarks (OLS time per run)"
      ~columns:[ "kernel"; "time/run"; "r2" ]
  in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols (List.hd instances) raw in
      (* Rows in kernel-name order, not unspecified hash order, so two
         runs' tables line up row for row. *)
      let rows =
        List.sort
          (fun (a, _) (b, _) -> String.compare a b)
          (Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [])
      in
      List.iter
        (fun (name, ols_result) ->
          let time_cell =
            match Analyze.OLS.estimates ols_result with
            | Some (ns :: _) ->
              if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
              else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
              else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
              else Printf.sprintf "%.0f ns" ns
            | Some [] | None -> "n/a"
          in
          let r2_cell =
            match Analyze.OLS.r_square ols_result with
            | Some r2 -> Printf.sprintf "%.3f" r2
            | None -> "-"
          in
          Table.add_row table [ name; time_cell; r2_cell ])
        rows)
    tests;
  Table.print table

let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline
      "bench/main.exe runs the Bechamel microbenchmarks and takes no arguments; \
       the registry benchmark is `securebit_cli bench`";
    exit 2
  end;
  microbenchmarks ()
