(* Timing, order statistics, seeded choices, span helpers and the result
   document shared by every workload of the benchmark. *)

module Trace = Ferrum_telemetry.Trace
module Rng = Ferrum_faultsim.Rng

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear-interpolation quantile, [q] in [0, 1]; nan on an empty list. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* Host speed.  The benchmark gets a few cores of a shared host whose
   speed moves with the load of its other tenants for seconds to minutes
   at a time: over eight runs of the same code the toolchain's
   items_per_s spread by 0.107 of its median (IQR), and by 0.3 at worse
   times.  [reference ()] times a fixed piece of work that calls nothing
   from lib/, so no change to the program can move it: OCaml stdlib work
   that allocates as the toolchain does (a string-valued Hashtbl, a list
   sort), which slows with the host as the program does.  [host_timed f]
   runs the reference just before [f] and scales [f]'s time by
   [reference_s /. reference ()]: the time [f] would take on a host where
   the reference takes [reference_s].  On the same eight runs that cut
   the spread of items_per_s to 0.012; an allocation-free pointer chase
   as the reference only cut it to 0.057. *)
let reference_s = 0.004

let reference () =
  let t0 = now () in
  let h = Hashtbl.create 1024 and acc = ref 0 in
  for i = 0 to 20_000 do
    let k = (i * 7919) land 0xfff in
    Hashtbl.replace h k (string_of_int i);
    acc := !acc + String.length (Hashtbl.find h k)
  done;
  let l = List.sort compare (List.init 10_000 (fun i -> i * 104729 mod 100_003)) in
  ignore (Sys.opaque_identity (!acc + List.length l));
  now () -. t0

let host_timed f =
  let r = reference () in
  let x, dt = timed f in
  (x, dt *. reference_s /. r)

let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = sum xs /. float_of_int (List.length xs)
let geomean xs = exp (mean (List.map log xs))

(* Every generated input is a pure function of the workload seed and a
   per-use salt: stream [salt] of the seed. *)
let rng ~seed salt = Rng.split_at ~seed:(Int64.of_int seed) salt

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int r (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Wall seconds of each traced call, by span name.  Kept beside the trace
   because its wall rows print epoch seconds to 12 significant digits,
   i.e. 10 ms, too coarse for layers that take microseconds. *)
let span_times : (string, float list) Hashtbl.t = Hashtbl.create 64

(* Run [f] inside a benchmark-owned span when [tr] holds a recorder. *)
let span tr name f =
  match tr with
  | None -> f ()
  | Some r ->
    let x, dt = timed (fun () -> Trace.span r name f) in
    Hashtbl.replace span_times name
      (dt :: Option.value ~default:[] (Hashtbl.find_opt span_times name));
    x

(* Operations attempted and failed.  A failure is a shard retry, an
   output-check mismatch, a non-2xx response or a timeout; any failure
   makes the run incorrect. *)
let attempted = ref 0
let failed = ref 0

let op ?(failures = 0) what =
  incr attempted;
  if failures > 0 then begin
    failed := !failed + failures;
    Printf.eprintf "[perfbench] FAILED (%d): %s\n%!" failures what
  end

let check ok what = op ~failures:(if ok then 0 else 1) what

type metric = { name : string; value : float; unit_ : string }

let reported : metric list ref = ref []

(* A metric of the result document. *)
let report name unit_ value = reported := { name; value; unit_ } :: !reported

(* An informational line: printed now, not part of the result document. *)
let note name unit_ value = Printf.printf "# %-32s %.6g %s\n%!" name value unit_

(* Every metric as a readable line, then the one-line JSON result last. *)
let print_result () =
  let ms = List.rev !reported in
  List.iter (fun m -> check (Float.is_finite m.value) (m.name ^ " is finite")) ms;
  note "failed_frac" "ratio" (float_of_int !failed /. float_of_int (max 1 !attempted));
  List.iter (fun m -> Printf.printf "%-34s %.6g %s\n" m.name m.value m.unit_) ms;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "-1" in
  let field m =
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name (num m.value)
      m.unit_
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) (max 1 !attempted) !failed
    (String.concat ", " (List.map field ms))
