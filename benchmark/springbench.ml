(* springbench: six closed-loop workloads over the stacked SFS, timed on
   the simulated clock and on the wall clock.

     dune exec benchmark/springbench.exe -- --workload warm-mix --seed 7

   A run repeats rounds of one workload for [--seconds] of wall time, each
   round a fresh world, and checks every round's output.  Round 0 runs
   [--seed] itself and later rounds seeds derived from it.  [--trace 0]
   prints the end-to-end metrics; [--trace 1] prints the per-layer ones,
   adding one shorter round under [Sp_trace].  The last line of standard
   output is a JSON object with the result; the exit code is 1 if any op
   or check failed or the trace dropped a span. *)

open Springbench_lib
module W = Workload
module R = Runner

type outcome = {
  workload : W.t;
  rounds : R.round list;
  metrics : Report.metric list;
  correct : bool;
  attempted : int;
  failed : int;
}

let round_seed seed i = if i = 0 then seed else Hashtbl.hash (seed, i)

(* The traced round runs a twentieth of the ops (crowd: of the clients)
   so the trace stays within the default span capacity. *)
let traced_round w ~seed =
  match w with
  | W.Crowd ->
      let clients = W.clients w / 20 in
      R.run w ~seed ~trace:true ~clients ~ops:(W.ops w / W.clients w * clients)
  | _ -> R.run w ~seed ~trace:true ~ops:(W.ops w / 20)

let run_workload w ~seed ~seconds ~trace =
  let start = R.wall_ns () in
  let budget = int_of_float (seconds *. 1e9) in
  let rec rounds acc =
    let i = List.length acc in
    let t0 = R.wall_ns () in
    let r = R.run w ~seed:(round_seed seed i) in
    let took = R.wall_ns () - t0 in
    Printf.eprintf "springbench: %s round %d: setup %.3fs, run %.3fs, %d failed\n%!" (W.name w) i
      (float_of_int r.setup_wall_ns /. 1e9)
      (float_of_int r.run_wall_ns /. 1e9)
      (R.failed r);
    let acc = r :: acc in
    if i + 1 >= Report.sim_rounds && R.wall_ns () - start + took > budget then List.rev acc
    else rounds acc
  in
  let rounds = rounds [] in
  let traced = if trace then Some (traced_round w ~seed) else None in
  let all = rounds @ Option.to_list traced in
  let dropped = match traced with Some { trace = Some tr; _ } -> tr.dropped | _ -> 0 in
  let failed = List.fold_left (fun acc r -> acc + R.failed r) 0 all in
  List.iter (fun (r : R.round) -> List.iter (Printf.eprintf "springbench: %s\n") r.failures) all;
  if dropped > 0 then Printf.eprintf "springbench: the trace dropped %d spans\n" dropped;
  let metrics =
    match traced with
    | None -> Report.summarize (List.map Report.end_to_end rounds)
    | Some t ->
        let untraced_ns_per_op =
          List.fold_left
            (fun acc (r : R.round) -> Float.min acc (float_of_int r.run_wall_ns /. float_of_int r.ops))
            Float.infinity rounds
        in
        Report.summarize (List.map Report.per_layer rounds) @ Report.traced t ~untraced_ns_per_op
  in
  {
    workload = w;
    rounds;
    metrics;
    correct = failed = 0 && dropped = 0;
    attempted = List.fold_left (fun acc (r : R.round) -> acc + r.ops) 0 all;
    failed;
  }

let print o ~seed =
  let name = W.name o.workload in
  List.iter (fun m -> print_endline (Report.metric_line ~workload:name m)) o.metrics;
  Printf.printf "BENCH status=%s workload=%s seed=%d ops=%d errors=%d digest=%d\n"
    (if o.correct then "ok" else "fail")
    name seed o.attempted o.failed (List.hd o.rounds).digest;
  print_endline
    (Report.result_json ~correct:o.correct ~attempted:o.attempted ~failed:o.failed o.metrics)

let write_json file ~seed outcomes =
  let run o =
    Printf.sprintf {|{"workload": "%s", "seed": %d, "rounds": %d, "digest": %d, "metrics": [%s]}|}
      (W.name o.workload) seed (List.length o.rounds) (List.hd o.rounds).digest
      (String.concat ", " (List.map Report.metric_json o.metrics))
  in
  let oc = open_out file in
  Printf.fprintf oc {|{"host": {"nproc": %d, "ocaml": "%s", "word_size": %d}, "runs": [%s]}|}
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Sys.word_size
    (String.concat ", " (List.map run outcomes));
  output_char oc '\n';
  close_out oc

let main workload seed seconds trace json =
  let ws = match workload with "all" -> W.all | n -> [ Option.get (W.of_name n) ] in
  match
    List.map
      (fun w ->
        let o = run_workload w ~seed ~seconds ~trace in
        print o ~seed;
        o)
      ws
  with
  | outcomes ->
      Option.iter (fun f -> write_json f ~seed outcomes) json;
      if List.for_all (fun o -> o.correct) outcomes then 0 else 1
  | exception Failure msg ->
      Printf.eprintf "springbench: a round failed: %s\n" msg;
      1

open Cmdliner

let workload =
  let names = "all" :: List.map W.name W.all in
  Arg.(
    required
    & opt (some (enum (List.map (fun n -> (n, n)) names))) None
    & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to run, or $(b,all) for the six in order.")

let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Seed of the workload's inputs.")

let seconds =
  Arg.(
    value & opt float 10.
    & info [ "seconds" ]
        ~doc:"Wall time to spend repeating rounds; at least five rounds run whatever it is.")

let trace =
  Arg.(
    value
    & opt (enum [ ("0", false); ("1", true) ]) false
    & info [ "trace" ] ~docv:"0|1"
        ~doc:"1 adds a traced round and prints per-layer metrics instead of end-to-end ones.")

let json =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Also write every metric and the host's facts to FILE.")

let () =
  let info = Cmd.info "springbench" ~doc:"Closed-loop benchmark of the stacked Spring file system" in
  exit (Cmd.eval' (Cmd.v info Term.(const main $ workload $ seed $ seconds $ trace $ json)))
