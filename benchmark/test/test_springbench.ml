(* springbench at smoke size: every workload runs clean, prints the
   metrics BENCHMARK.json declares, repeats exactly for a seed, and agrees
   with the scale benchmark it reproduces. *)

open Springbench_lib
module W = Workload
module R = Runner

(* Small enough that the whole suite runs in a few seconds. *)
let smoke w =
  match w with
  | W.Crowd -> (2_000, 2_000)
  | W.Warm_mix | W.Sync_heavy -> (16, 4_000)
  | _ -> (16, 1_000)

let run ?tag ?(trace = false) ?(seed = 7) w =
  let clients, ops = smoke w in
  R.run ?tag ~trace ~clients ~ops w ~seed

let memo = Hashtbl.create 8

(* One untraced and one traced round per workload, shared by the tests. *)
let rounds w =
  match Hashtbl.find_opt memo w with
  | Some rs -> rs
  | None ->
      let rs = (run w, run ~trace:true w) in
      Hashtbl.replace memo w rs;
      rs

let metrics w =
  let r, t = rounds w in
  ( Report.summarize [ Report.end_to_end r ],
    Report.summarize [ Report.per_layer r ] @ Report.traced t ~untraced_ns_per_op:1. )

let test_clean w () =
  let r, t = rounds w in
  List.iter
    (fun (r : R.round) ->
      Alcotest.(check (list string)) "no failures" [] r.failures;
      Alcotest.(check int) "failed" 0 (R.failed r))
    [ r; t ];
  Alcotest.(check int) "no dropped spans" 0 (Option.get t.trace).dropped

(* [(section, name, unit)] of every metric BENCHMARK.json declares; the
   file keeps one metric object per line. *)
let declared () =
  let ic = open_in "../../BENCHMARK.json" in
  let metric = Str.regexp {|.*"name": "\([^"]*\)", "unit": "\([^"]*\)"|} in
  let section = ref "" and acc = ref [] in
  (try
     while true do
       let line = input_line ic in
       if Str.string_match (Str.regexp {|.*"end_to_end"|}) line 0 then section := "end_to_end"
       else if Str.string_match (Str.regexp {|.*"per_layer"|}) line 0 then section := "per_layer"
       else if Str.string_match metric line 0 then
         acc := (!section, Str.matched_group 1 line, Str.matched_group 2 line) :: !acc
     done
   with End_of_file -> close_in ic);
  List.rev !acc

let test_declared w () =
  let e2e, layers = metrics w in
  let printed section ms = List.map (fun (m : Report.metric) -> (section, m.name, m.unit_)) ms in
  let sort = List.sort compare in
  Alcotest.(check (list (triple string string string)))
    "printed metrics are the declared ones"
    (sort (declared ()))
    (sort (printed "end_to_end" e2e @ printed "per_layer" layers));
  let valid = Str.regexp {|^[A-Za-z0-9_.-]+$|} in
  List.iter
    (fun (m : Report.metric) ->
      Alcotest.(check bool) (m.name ^ " is a valid name") true (Str.string_match valid m.name 0);
      Alcotest.(check bool) (m.name ^ " is finite") true (Float.is_finite m.value))
    (e2e @ layers)

(* The simulated metrics: those that repeat for a seed, less the ones that
   measure the OCaml process, which a round inherits from its parent and
   which this test's own allocation changes. *)
let simulated ms =
  List.filter_map
    (fun (m : Report.metric) ->
      let process =
        List.mem m.name [ "alloc_bytes_per_op"; "peak_heap_mb" ]
        || String.starts_with ~prefix:"runtime." m.name
      in
      if m.over = Report.Seeded && not process then Some (m.name, m.value) else None)
    ms

let test_repeats () =
  let w = W.Sync_heavy in
  let r, _ = rounds w in
  let r' = run w in
  let other = run ~seed:11 w in
  Alcotest.(check int) "same seed, same digest" r.digest r'.digest;
  Alcotest.(check (list (pair string (float 0.))))
    "same seed, same simulated metrics"
    (simulated (Report.end_to_end r @ Report.per_layer r))
    (simulated (Report.end_to_end r' @ Report.per_layer r'));
  Alcotest.(check bool) "another seed, another digest" true (r.digest <> other.digest)

(* Scale names its world "scale<N>" after a process-wide counter; in a
   fresh child its first row is "scale1", so the benchmark's world gets
   the same names. *)
let test_scale w () =
  let clients, budget = smoke w in
  let deep = w = W.Deep_stack and sync_heavy = w = W.Sync_heavy in
  let row =
    R.isolated (fun () ->
        Sp_benchlib.Scale.run_row ~budget ~deep ~sync_heavy ~clients ~seed:7 ())
  in
  let r = run ~tag:"scale1" w in
  Alcotest.(check (list int))
    "p50, p99, p999, elapsed"
    [ row.sc_p50_ns; row.sc_p99_ns; row.sc_p999_ns; row.sc_elapsed_ns ]
    [ r.p50_ns; r.p99_ns; r.p999_ns; r.elapsed_ns ];
  Alcotest.(check int) "ops" row.sc_ops r.ops;
  Alcotest.(check int) "switches" row.sc_switches r.switches

let test_tracing_transparent w () =
  let r, t = rounds w in
  Alcotest.(check int) "digest" r.digest t.digest;
  Alcotest.(check (list int))
    "p50, p99, p999, elapsed"
    [ r.p50_ns; r.p99_ns; r.p999_ns; r.elapsed_ns ]
    [ t.p50_ns; t.p99_ns; t.p999_ns; t.elapsed_ns ]

let test_shares w () =
  let _, t = rounds w in
  let shares = (Option.get t.trace).shares in
  let sum = List.fold_left (fun acc (_, self, _) -> acc +. self) 0. shares in
  Alcotest.(check (float 1e-9)) "self shares sum to 1" 1. sum

let cases ws f = List.map (fun w -> Alcotest.test_case (W.name w) `Quick (f w)) ws

let () =
  Alcotest.run "springbench"
    [
      ("clean", cases W.all test_clean);
      ("declared", cases W.all test_declared);
      ("repeats", [ Alcotest.test_case "sync-heavy" `Quick test_repeats ]);
      ("scale", cases [ W.Warm_mix; W.Sync_heavy; W.Deep_stack; W.Crowd ] test_scale);
      ("tracing", cases W.all test_tracing_transparent);
      ("shares", cases W.all test_shares);
    ]
