type worker_stat = {
  domain_index : int;
  tasks_run : int;
  minor_words : float;
  major_words : float;
  promoted_words : float;
  top_heap_words : int;
}

(* One domain's counters between two snapshots it took itself.  The
   minor words come from [Gc.minor_words ()], which counts the current
   minor heap too; [Gc.quick_stat]'s count moves only at a minor
   collection, a heap (256 k words) at a time. *)
let stat ~domain_index ~tasks_run ~minor_words (g0 : Gc.stat) (g1 : Gc.stat) =
  {
    domain_index;
    tasks_run;
    minor_words;
    major_words = g1.major_words -. g0.major_words;
    promoted_words = g1.promoted_words -. g0.promoted_words;
    (* Process-lifetime major-heap high-water mark as this domain saw it
       when it finished — a peak, not a delta (heap space is shared across
       domains, so no per-domain subtraction is meaningful). *)
    top_heap_words = g1.top_heap_words;
  }

(* Work-stealing-free static pool: workers pull task indices from a shared
   atomic counter and write results into per-index slots, so the output
   order is the input order no matter which domain ran which task.  On a
   task exception the first failure is kept with its backtrace, the
   remaining tasks are abandoned, and the exception is re-raised from the
   original raise site after every domain joined. *)
let run_parallel ~jobs f xs =
  let n = Array.length xs in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let failure = Atomic.make None in
  let stats = Array.make jobs None in
  (* Each worker owns slot [w] of [stats] and the result slots of the task
     indices it drew — disjoint cells, never two domains on one cell. *)
  let worker w =
    let g0 = Gc.quick_stat () in
    let m0 = Gc.minor_words () in
    let ran = ref 0 in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n && Atomic.get failure = None then begin
        (match f xs.(i) with
        | v ->
          results.(i) <- Some v;
          incr ran
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set failure None (Some (e, bt))));
        loop ()
      end
    in
    loop ();
    let minor_words = Gc.minor_words () -. m0 in
    stats.(w) <- Some (stat ~domain_index:w ~tasks_run:!ran ~minor_words g0 (Gc.quick_stat ()))
  in
  let spawned = List.init (jobs - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1))) in
  worker 0;
  List.iter Domain.join spawned;
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None ->
    let get = function Some v -> v | None -> invalid_arg "Pool.map_array_stats: missing slot" in
    (Array.map get results, Array.to_list (Array.map get stats))

let map_array_stats ~jobs f xs =
  let jobs = max 1 (min jobs (Array.length xs)) in
  if jobs > 1 then run_parallel ~jobs f xs
  else begin
    let g0 = Gc.quick_stat () in
    let m0 = Gc.minor_words () in
    let results = Array.map f xs in
    let minor_words = Gc.minor_words () -. m0 in
    ( results,
      [ stat ~domain_index:0 ~tasks_run:(Array.length xs) ~minor_words g0 (Gc.quick_stat ()) ] )
  end
