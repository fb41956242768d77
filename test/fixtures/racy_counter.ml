(* Deliberately racy pool task: every task increments a module-level
   counter, so the result of each task depends on scheduling.  This file is
   never compiled — it is the committed proof fixture that Source_lint's
   global-mutable rule flags such a counter in any library module
   (test_check lints it under a lib/ path).  Outside lib/ the rule does
   not apply, so the tree-wide `lint source` passes it where it sits. *)

let hits = ref 0

let racy_sum specs =
  fst
    (Pool.map_array_stats ~jobs:4
       (fun spec ->
         hits := !hits + spec;
         !hits)
       specs)
