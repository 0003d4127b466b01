(* Workload tests: every kernel verifies, interprets, compiles and
   simulates to the same output; golden outputs are pinned as regression
   values; catalogue metadata matches paper Table II. *)

module Machine = Ferrum_machine.Machine
module Predecode = Ferrum_machine.Predecode
module Interp = Ferrum_ir.Interp
module Catalog = Ferrum_workloads.Catalog

let find name = Option.get (Catalog.find name)

let compiled_output m =
  match Predecode.run_fresh (Machine.load (Ferrum_eddi.Pipeline.raw m).program) with
  | Machine.Exit out, st -> (out, st.Machine.steps)
  | o, _ -> Alcotest.failf "compiled run failed: %a" Machine.pp_outcome o

let test_differential_all () =
  List.iter
    (fun (e : Catalog.entry) ->
      let m = e.build () in
      Ferrum_ir.Verify.run m;
      let interp = Interp.run m in
      let out, _ = compiled_output m in
      Alcotest.(check (list int64)) (e.name ^ " interp = compiled")
        interp.Interp.output out)
    Catalog.all

(* Pinned golden outputs: these change only if a kernel or the LCG
   changes, which should be a deliberate decision. *)
let goldens =
  [
    ("Backprop", [ 34L; 41L; -1L; -54L; 999L ]);
    ("BFS", [ 15392L; 6L; 96L ]);
    ("Pathfinder", [ 31L; 23537L ]);
    ("LUD", [ 13331L; -225506L ]);
    ("Needle", [ 19L; 1544L ]);
    ("kNN", [ 6L; 9L; 0L; 31L; 37L; 691510L ]);
    ("kmeans", [ 708L; 231L; 687L; 696L; 221L; 828L; 240L; 238L; 1430L ]);
    ("Particlefilter", [ 10601L; 506L ]);
  ]

let test_goldens () =
  List.iter
    (fun (name, expect) ->
      let m = (find name).build () in
      let out, _ = compiled_output m in
      Alcotest.(check (list int64)) (name ^ " golden") expect out)
    goldens

let test_catalog_metadata () =
  Alcotest.(check int) "eight benchmarks" 8 (List.length Catalog.all);
  let domains =
    [ ("Backprop", "Machine Learning"); ("BFS", "Graph Algorithm");
      ("Pathfinder", "Dynamic Programming"); ("LUD", "Linear Algebra");
      ("Needle", "Dynamic Programming"); ("kNN", "Machine Learning");
      ("kmeans", "Data Mining"); ("Particlefilter", "Noise estimator") ]
  in
  List.iter
    (fun (name, domain) ->
      let e = find name in
      Alcotest.(check string) (name ^ " suite") "Rodinia" e.Catalog.suite;
      Alcotest.(check string) (name ^ " domain") domain e.Catalog.domain)
    domains;
  Alcotest.(check bool) "lookup is case-insensitive" true
    (Catalog.find "bfs" <> None);
  Alcotest.(check bool) "unknown name" true (Catalog.find "nope" = None)

let test_dynamic_sizes () =
  (* kernels must be big enough to be meaningful fault-injection targets
     and small enough that campaigns stay fast *)
  List.iter
    (fun (e : Catalog.entry) ->
      let _, steps = compiled_output (e.build ()) in
      if steps < 5_000 || steps > 2_000_000 then
        Alcotest.failf "%s: %d dynamic instructions out of range" e.name steps)
    Catalog.all

let test_outputs_are_input_sensitive () =
  (* sanity against degenerate kernels: output must not be all zeros *)
  List.iter
    (fun (e : Catalog.entry) ->
      let out, _ = compiled_output (e.build ()) in
      Alcotest.(check bool)
        (e.name ^ " non-trivial output")
        true
        (List.exists (fun v -> not (Int64.equal v 0L)) out))
    Catalog.all

let test_builds_are_deterministic () =
  List.iter
    (fun (e : Catalog.entry) ->
      let a, _ = compiled_output (e.build ()) in
      let b, _ = compiled_output (e.build ()) in
      Alcotest.(check (list int64)) (e.name ^ " deterministic") a b)
    Catalog.all

let () =
  Alcotest.run "workloads"
    [
      ( "semantics",
        [ Alcotest.test_case "interpreter = compiled, all kernels" `Quick
            test_differential_all;
          Alcotest.test_case "pinned golden outputs" `Quick test_goldens;
          Alcotest.test_case "deterministic builds" `Quick
            test_builds_are_deterministic ] );
      ( "catalogue",
        [ Alcotest.test_case "Table II metadata" `Quick test_catalog_metadata;
          Alcotest.test_case "dynamic size envelope" `Quick test_dynamic_sizes;
          Alcotest.test_case "non-trivial outputs" `Quick
            test_outputs_are_input_sensitive ] );
    ]
