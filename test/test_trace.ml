(* Sp_trace: span nesting, per-layer self-time accounting, the
   zero-overhead disabled path, and the Chrome trace-event export. *)

module F = Sp_core.File
module S = Sp_core.Stackable
module N = Sp_node.Node
module T = Sp_trace
module M = Sp_sim.Metrics

(* A small stacked world; [tag] keeps instance names unique per run
   (layer state registries are keyed by instance name). *)
let build_stack tag =
  let world = N.World.create () in
  let alpha = N.World.add_node world ("trace_" ^ tag) in
  ignore (N.add_disk alpha ~name:"disk0" ~blocks:2048);
  Sp_sfs.Disk_layer.mkfs (N.disk alpha "disk0");
  let sfs = N.mount_sfs alpha ~disk_name:"disk0" ~name:("trace_sfs_" ^ tag) in
  N.build_stack alpha ~base:sfs
    [ ("coherency", "trace_coh_" ^ tag); ("compfs", "trace_comp_" ^ tag) ]

let workload tag () =
  let top = build_stack tag in
  let f = S.create top (Util.name "f") in
  ignore (F.write f ~pos:0 (Bytes.make 4096 'x'));
  ignore (F.read f ~pos:0 ~len:4096);
  S.sync top

(* --- span nesting --- *)

let test_nesting () =
  Util.in_world (fun () ->
      let d1 = Sp_obj.Sdomain.create "t_nest_outer" in
      let d2 = Sp_obj.Sdomain.create "t_nest_mid" in
      let d3 = Sp_obj.Sdomain.create "t_nest_inner" in
      let (), trace =
        T.with_tracing (fun () ->
            Sp_obj.Door.call ~op:"outer" d1 (fun () ->
                Sp_obj.Door.call ~op:"mid" d2 (fun () ->
                    Sp_obj.Door.call ~op:"inner" d3 (fun () -> ()))))
      in
      (* Completion order: innermost closes first, root last. *)
      let ops = List.map (fun sp -> sp.T.sp_op) trace.T.tr_spans in
      Alcotest.(check (list string))
        "completion order" [ "inner"; "mid"; "outer"; "workload" ] ops;
      let by_op op = List.find (fun sp -> sp.T.sp_op = op) trace.T.tr_spans in
      Alcotest.(check int) "root depth" 0 (by_op "workload").T.sp_depth;
      Alcotest.(check int) "outer depth" 1 (by_op "outer").T.sp_depth;
      Alcotest.(check int) "mid depth" 2 (by_op "mid").T.sp_depth;
      Alcotest.(check int) "inner depth" 3 (by_op "inner").T.sp_depth;
      Alcotest.(check int) "inner's parent is mid" (by_op "mid").T.sp_id
        (by_op "inner").T.sp_parent;
      Alcotest.(check int) "mid's parent is outer" (by_op "outer").T.sp_id
        (by_op "mid").T.sp_parent;
      Alcotest.(check int) "outer's parent is root" trace.T.tr_root
        (by_op "outer").T.sp_parent;
      Alcotest.(check string) "dst is the serving domain" "t_nest_mid"
        (by_op "mid").T.sp_dst;
      Alcotest.(check string) "src is the calling domain" "t_nest_outer"
        (by_op "mid").T.sp_src)

let test_stack_depth () =
  Util.in_world (fun () ->
      let (), trace = T.with_tracing (workload "depth") in
      let max_depth =
        List.fold_left (fun acc sp -> max acc sp.T.sp_depth) 0 trace.T.tr_spans
      in
      (* file.write on compfs -> coherency -> sfs -> disk layer crossings
         (plus VMM traffic) must nest at least as deep as the stack. *)
      Alcotest.(check bool) "spans nest at least 4 deep" true (max_depth >= 4);
      let file_ops =
        List.filter
          (fun sp -> sp.T.sp_op = "file.read" || sp.T.sp_op = "file.write")
          trace.T.tr_spans
      in
      Alcotest.(check bool) "file ops recorded" true (List.length file_ops >= 2))

(* --- self-time accounting --- *)

let test_self_time_partitions_total () =
  Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
      let (), trace = T.with_tracing (workload "selftime") in
      Alcotest.(check int) "nothing dropped" 0 trace.T.tr_dropped;
      Alcotest.(check bool) "simulated time elapsed" true (trace.T.tr_total_ns > 0);
      let span_sum =
        List.fold_left (fun acc sp -> acc + sp.T.sp_self_ns) 0 trace.T.tr_spans
      in
      Alcotest.(check int) "span self-times sum to total elapsed"
        trace.T.tr_total_ns span_sum;
      let agg_sum =
        List.fold_left (fun acc s -> acc + s.T.agg_self_ns) 0 (T.aggregate trace)
      in
      Alcotest.(check int) "per-layer self column sums to total elapsed"
        trace.T.tr_total_ns agg_sum;
      (* Self crossings partition the global counter the same way. *)
      let crossings =
        List.fold_left
          (fun acc sp -> acc + sp.T.sp_self_metrics.M.cross_domain_calls)
          0 trace.T.tr_spans
      in
      let root =
        List.find (fun sp -> sp.T.sp_id = trace.T.tr_root) trace.T.tr_spans
      in
      Alcotest.(check int) "self crossings sum to the root's inclusive delta"
        root.T.sp_metrics.M.cross_domain_calls crossings)

(* Under the scheduler the partition target changes from wall time to
   busy time: two interleaved tasks' spans each get exactly the service
   time they charged, queue waits land in [sp_queue_ns], and the span
   self-times sum to [tr_busy_ns] (which exceeds wall time whenever the
   tasks overlap at all). *)
let test_two_task_interleave_partitions_busy () =
  Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
      let d = Sp_obj.Sdomain.create "t_il_srv" in
      let task () =
        for _ = 1 to 3 do
          Sp_obj.Door.call ~op:"il.work" d (fun () ->
              Sp_sim.Simclock.advance 1_000)
        done
      in
      let (), trace =
        T.with_tracing (fun () -> ignore (Sp_sched.run ~seed:3 [ task; task ]))
      in
      Alcotest.(check int) "nothing dropped" 0 trace.T.tr_dropped;
      Alcotest.(check bool) "two tasks overlapped: busy exceeds wall" true
        (trace.T.tr_busy_ns > trace.T.tr_total_ns);
      let span_sum =
        List.fold_left (fun acc sp -> acc + sp.T.sp_self_ns) 0 trace.T.tr_spans
      in
      Alcotest.(check int) "span self-times sum to total busy"
        trace.T.tr_busy_ns span_sum;
      (* Every work span belongs to a real task and none to the main
         context; each charged exactly its own service time plus the
         door crossing. *)
      let works = List.filter (fun sp -> sp.T.sp_op = "il.work") trace.T.tr_spans in
      Alcotest.(check int) "all six work spans recorded" 6 (List.length works);
      List.iter
        (fun sp ->
          Alcotest.(check bool) "work span is task-owned" true (sp.T.sp_task >= 0);
          Alcotest.(check bool) "span charged at least its advance" true
            (sp.T.sp_self_ns >= 1_000))
        works;
      let tasks =
        List.sort_uniq compare
          (List.filter_map
             (fun sp -> if sp.T.sp_op = "il.work" then Some sp.T.sp_task else None)
             works)
      in
      Alcotest.(check int) "work spans span both tasks" 2 (List.length tasks))

(* Three tasks whose waits mix the two ways a task comes back: the short
   task's charges often fall before every pending timer, so it is the
   only task that can run next, while the long and mid tasks park behind
   a one-server station and each other's timers.  The figures were
   recorded with every wait parked; they pin the busy total and each
   span's self and queue time, whichever way a wait resumes. *)
let test_pinned_mixed_waits () =
  Util.in_world (fun () ->
      let d = Sp_obj.Sdomain.create "t_pin_srv" in
      let st = Sp_sched.Station.create ~servers:1 "t_pin_q" in
      let long () =
        for _ = 1 to 2 do
          Sp_obj.Door.call ~op:"pin.long" d (fun () -> Sp_sched.Station.serve st 1_000)
        done
      in
      let short () =
        for _ = 1 to 4 do
          Sp_obj.Door.call ~op:"pin.short" d (fun () -> Sp_sim.Simclock.advance 100)
        done
      in
      let mid () =
        Sp_sched.sleep 50;
        Sp_obj.Door.call ~op:"pin.mid" d (fun () ->
            Sp_sched.Station.serve st 300;
            Sp_sim.Simclock.advance 200)
      in
      let (), trace =
        T.with_tracing (fun () -> ignore (Sp_sched.run ~seed:5 [ long; short; mid ]))
      in
      let rows =
        List.map
          (fun sp ->
            Printf.sprintf "%s self=%d queue=%d" sp.T.sp_op sp.T.sp_self_ns sp.T.sp_queue_ns)
          trace.T.tr_spans
      in
      Alcotest.(check int) "busy total" 2907 trace.T.tr_busy_ns;
      Alcotest.(check (list string))
        "spans in completion order"
        [ "pin.short self=101 queue=0"; "pin.short self=101 queue=0";
          "pin.short self=101 queue=0"; "pin.short self=101 queue=0";
          "task:t1 self=0 queue=0"; "pin.long self=1001 queue=0";
          "pin.mid self=501 queue=950"; "task:t0 self=0 queue=0";
          "pin.long self=1001 queue=299"; "task:t2 self=0 queue=0";
          "workload self=0 queue=0" ]
        rows;
      let span_sum =
        List.fold_left (fun acc sp -> acc + sp.T.sp_self_ns) 0 trace.T.tr_spans
      in
      Alcotest.(check int) "span self-times sum to total busy" trace.T.tr_busy_ns span_sum)

(* --- disabled path --- *)

let test_disabled_is_identical () =
  let run traced tag =
    Sp_sim.Simclock.reset ();
    Sp_sim.Metrics.reset ();
    Sp_sim.Cost_model.with_model Sp_sim.Cost_model.paper_1993 (fun () ->
        let before = M.snapshot () in
        let t0 = Sp_sim.Simclock.now () in
        if traced then ignore (T.with_tracing (workload tag))
        else workload tag ();
        ( M.diff ~before ~after:(M.snapshot ()),
          Sp_sim.Simclock.now () - t0 ))
  in
  let plain_m, plain_ns = run false "plain" in
  let traced_m, traced_ns = run true "traced" in
  Alcotest.(check string) "metrics snapshot diff identical"
    (Format.asprintf "%a" M.pp plain_m)
    (Format.asprintf "%a" M.pp traced_m);
  Alcotest.(check int) "simulated time identical" plain_ns traced_ns;
  Alcotest.(check bool) "tracing off outside with_tracing" false (T.enabled ())

let test_exception_tears_down () =
  Util.in_world (fun () ->
      (try
         ignore
           (T.with_tracing (fun () ->
                Sp_obj.Door.call (Sp_obj.Sdomain.create "t_exn") (fun () ->
                    failwith "boom")))
       with Failure _ -> ());
      Alcotest.(check bool) "disabled after exception" false (T.enabled ());
      (* and a fresh trace still works *)
      let (), trace = T.with_tracing (fun () -> ()) in
      Alcotest.(check int) "fresh trace has just the root" 1
        (List.length trace.T.tr_spans))

let test_ring_overflow_drops_oldest () =
  Util.in_world (fun () ->
      let d = Sp_obj.Sdomain.create "t_ring" in
      let (), trace =
        T.with_tracing ~capacity:4 (fun () ->
            for i = 1 to 10 do
              Sp_obj.Door.call ~op:(Printf.sprintf "op%d" i) d (fun () -> ())
            done)
      in
      (* 10 spans + root = 11 recorded; 4 kept. *)
      Alcotest.(check int) "dropped" 7 trace.T.tr_dropped;
      Alcotest.(check (list string))
        "newest spans survive, in order"
        [ "op8"; "op9"; "op10"; "workload" ]
        (List.map (fun sp -> sp.T.sp_op) trace.T.tr_spans))

(* --- Chrome trace-event export --- *)

(* Minimal recursive-descent JSON well-formedness check (no JSON library in
   the dependency set). *)
let validate_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = Alcotest.failf "invalid JSON at byte %d: %s" !pos msg in
  let peek () = if !pos >= n then fail "unexpected end of input" else s.[!pos] in
  let adv () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      adv ()
    done
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected %c, got %c" c (peek ()));
    adv ()
  in
  let literal w =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then pos := !pos + l else fail w
  in
  let number () =
    let num c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    if not (num (peek ())) then fail "number";
    while !pos < n && num s.[!pos] do
      adv ()
    done
  in
  let string_lit () =
    expect '"';
    let fin = ref false in
    while not !fin do
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' ->
            adv ();
            fin := true
        | '\\' ->
            adv ();
            if !pos < n then adv ()
        | c when Char.code c < 0x20 -> fail "raw control char in string"
        | _ -> adv ()
    done
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> string_lit ()
    | 't' -> literal "true"
    | 'f' -> literal "false"
    | 'n' -> literal "null"
    | '-' | '0' .. '9' -> number ()
    | c -> fail (Printf.sprintf "unexpected %c" c)
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = '}' then adv ()
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | ',' ->
            adv ();
            members ()
        | '}' -> adv ()
        | _ -> fail "expected , or } in object"
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = ']' then adv ()
    else
      let rec items () =
        value ();
        skip_ws ();
        match peek () with
        | ',' ->
            adv ();
            items ()
        | ']' -> adv ()
        | _ -> fail "expected , or ] in array"
      in
      items ()
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let count_substring hay needle =
  let nl = String.length needle in
  let rec go from acc =
    if from + nl > String.length hay then acc
    else if String.sub hay from nl = needle then go (from + 1) (acc + 1)
    else go (from + 1) acc
  in
  go 0 0

let test_chrome_json () =
  Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
      let (), trace = T.with_tracing (workload "chrome") in
      let json = T.chrome_json trace in
      validate_json json;
      Alcotest.(check int) "one complete event per span"
        (List.length trace.T.tr_spans)
        (count_substring json "\"ph\":\"X\"");
      Alcotest.(check bool) "has traceEvents key" true
        (count_substring json "\"traceEvents\"" = 1))

let test_chrome_json_escaping () =
  Util.in_world (fun () ->
      let d = Sp_obj.Sdomain.create "t_esc" in
      let (), trace =
        T.with_tracing (fun () ->
            Sp_obj.Door.call ~op:"odd \"op\"\\name\n" d (fun () -> ()))
      in
      validate_json (T.chrome_json trace))

let suite =
  [
    Alcotest.test_case "span nesting and parents" `Quick test_nesting;
    Alcotest.test_case "nesting matches stack depth" `Quick test_stack_depth;
    Alcotest.test_case "self-time partitions total" `Quick
      test_self_time_partitions_total;
    Alcotest.test_case "two-task interleave partitions busy" `Quick
      test_two_task_interleave_partitions_busy;
    Alcotest.test_case "mixed inline and parked waits: pinned spans" `Quick
      test_pinned_mixed_waits;
    Alcotest.test_case "disabled tracing changes nothing" `Quick
      test_disabled_is_identical;
    Alcotest.test_case "exception tears tracing down" `Quick
      test_exception_tears_down;
    Alcotest.test_case "ring overflow drops oldest" `Quick
      test_ring_overflow_drops_oldest;
    Alcotest.test_case "chrome json well-formed" `Quick test_chrome_json;
    Alcotest.test_case "chrome json escaping" `Quick test_chrome_json_escaping;
  ]
