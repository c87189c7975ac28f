(* Metrics of a springbench run and the lines that print them.

   Each round yields one value per metric, and a run combines its
   rounds' values in one of three ways.  Metrics that repeat exactly for
   a given seed (simulated time, counts, allocation, heap) take the
   median over the first [sim_rounds] rounds, which every run makes
   whatever its time budget, so a seed always gives the same values.
   The wall time of the closed loop takes the best round of the run: the
   machine is shared, and its bursts of load only ever slow a round
   down, so the fastest round is the one they disturbed least.  Set-up
   time takes the median over every round. *)

module W = Workload
module R = Runner

let sim_rounds = 5

type over_rounds =
  | Seeded  (** the same seed gives the same value: median of the first [sim_rounds] *)
  | Best  (** wall time of the loop: the best value of every round *)
  | Median  (** median of every round *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  higher : bool;  (** higher is better *)
  n : int;  (** samples behind the value *)
  over : over_rounds;
}

let metric ?(higher = false) ?(n = 1) ?(over = Seeded) name unit_ value =
  { name; value; unit_; higher; n; over }

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then 0. else if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

let ratio = R.share
let us ns = float_of_int ns /. 1e3

(* The end-to-end metrics of one untraced round.  The op mixes give
   multi-modal latencies whose median sits on one op type's fixed service
   time, so the central value is the mean; per-call medians are in the
   per-layer metrics. *)
let end_to_end (r : R.round) =
  let per_s ns = float_of_int r.ops /. (float_of_int ns /. 1e9) in
  [
    metric "sim_op_mean_us" "us" (us r.latency_ns /. float_of_int r.ops) ~n:r.ops;
    metric "sim_op_p99_us" "us" (us r.p99_ns) ~n:r.ops;
    metric "sim_op_p999_us" "us" (us r.p999_ns) ~n:r.ops;
    metric ~higher:true "sim_ops_per_s" "ops/s" (per_s r.elapsed_ns) ~n:r.ops;
    metric ~over:Best ~higher:true "wall_ops_per_s" "ops/s" (per_s r.run_wall_ns);
    metric "alloc_bytes_per_op" "bytes" (r.alloc_bytes /. float_of_int r.ops);
    metric "peak_heap_mb" "MB" (float_of_int r.top_heap_bytes /. 1e6);
    metric ~over:Median "setup_s" "s" (float_of_int r.setup_wall_ns /. 1e9);
  ]

(* The per-layer metrics one untraced round's counters give. *)
let per_layer (r : R.round) =
  let c = r.counters in
  let per_op ?higher name x = metric ?higher name "1/op" (ratio x r.ops) ~n:r.ops in
  let calls call = r.calls.(W.call_index call) in
  let core =
    List.concat_map
      (fun call ->
        let s = calls call and name = W.call_name call in
        [
          metric (Printf.sprintf "core.%s.sim_p50_us" name) "us" (us s.p50_ns) ~n:s.count;
          metric (Printf.sprintf "core.%s.sim_p99_us" name) "us" (us s.p99_ns) ~n:s.count;
        ])
      W.calls
  in
  let syncs = (calls Sync).count in
  let client_bytes = (calls Write).count * Bytes.length W.payload in
  let commits, journal_writes, absorbed = r.journal in
  let hits, misses = r.naming in
  let ios = r.disk.reads + r.disk.writes in
  core
  @ [
      per_op "obj.crossings_per_op" c.cross_domain_calls;
      per_op "obj.local_calls_per_op" c.local_calls;
      per_op "obj.kernel_calls_per_op" c.kernel_calls;
      per_op "sched.switches_per_op" r.switches;
      metric "sched.queue_share" "ratio" (ratio c.queue_ns r.latency_ns) ~n:r.ops;
      metric ~over:Best "sched.wall_ns_per_switch" "ns" (ratio r.run_wall_ns r.switches);
      per_op "vm.page_faults_per_op" c.page_faults;
      per_op "vm.page_ins_per_op" c.page_ins;
      per_op "vm.page_outs_per_op" c.page_outs;
      per_op "vm.evictions_per_op" r.evictions;
      metric ~higher:true "vm.readahead_hit_ratio" "ratio"
        (ratio c.readahead_hits (c.readahead_hits + c.readahead_wasted))
        ~n:(c.readahead_hits + c.readahead_wasted);
      per_op "coherency.actions_per_op" c.coherency_actions;
      per_op "coherency.attr_fetches_per_op" c.attr_fetches;
      metric ~higher:true "naming.hit_ratio" "ratio" (ratio hits (hits + misses)) ~n:(hits + misses);
      per_op "naming.misses_per_op" misses;
      metric "sfs.commits_per_sync" "ratio" (ratio commits syncs) ~n:syncs;
      metric ~higher:true "sfs.absorb_ratio" "ratio" (ratio absorbed syncs) ~n:syncs;
      metric "sfs.journal_writes_per_commit" "ratio" (ratio journal_writes commits) ~n:commits;
      metric "sfs.space_amp" "ratio" (ratio r.used_bytes r.live_bytes);
      per_op "disk.reads_per_op" r.disk.reads;
      per_op "disk.writes_per_op" r.disk.writes;
      metric "disk.seeks_per_io" "ratio" (ratio r.disk.seeks ios) ~n:ios;
      metric "disk.write_amp" "ratio" (ratio (r.disk.writes * Sp_blockdev.Disk.block_size) client_bytes);
      per_op "bulk.copies_per_op" c.bulk_copies;
      per_op ~higher:true "bulk.handoffs_per_op" c.bulk_handoffs;
      metric "runtime.minor_gcs_per_kop" "1/kop" (1000. *. ratio r.minor_gcs r.ops) ~n:r.ops;
      metric "runtime.major_gcs_per_kop" "1/kop" (1000. *. ratio r.major_gcs r.ops) ~n:r.ops;
      metric "runtime.promoted_bytes_per_op" "bytes" (r.promoted_bytes /. float_of_int r.ops) ~n:r.ops;
    ]

(* The metrics of the traced round; [untraced_ns_per_op] is the wall
   time per op of the fastest untraced round, for the tracing overhead. *)
let traced (t : R.round) ~untraced_ns_per_op =
  let tr = Option.get t.trace in
  let capacity = Option.value (W.vm_capacity t.workload) ~default:0 in
  (metric "vm.resident_peak_ratio" "ratio" (ratio tr.resident_peak capacity) ~n:t.ops
  :: List.concat_map
       (fun (ro, self, queue) ->
         [
           metric (Printf.sprintf "trace.%s.self_share" ro) "ratio" self ~n:t.ops;
           metric (Printf.sprintf "trace.%s.queue_share" ro) "ratio" queue ~n:t.ops;
         ])
       tr.shares)
  @ [
      metric ~over:Median "trace.overhead_x" "ratio"
        (float_of_int t.run_wall_ns /. float_of_int t.ops /. untraced_ns_per_op)
        ~n:t.ops;
      metric "trace.spans_per_op" "1/op" (ratio tr.spans t.ops) ~n:t.ops;
    ]

(* Each metric over the rounds (round 0 first) that it is taken over;
   [n] sums the samples of those rounds. *)
let summarize per_round =
  match per_round with
  | [] -> []
  | first :: _ ->
      let sim = List.filteri (fun i _ -> i < sim_rounds) per_round in
      List.mapi
        (fun i m ->
          let ms = List.map (fun ms -> List.nth ms i) (if m.over = Seeded then sim else per_round) in
          let values = List.map (fun m -> m.value) ms in
          let value =
            match m.over with
            | Best -> List.fold_left (if m.higher then Float.max else Float.min) (List.hd values) values
            | Seeded | Median -> median values
          in
          { m with value; n = List.fold_left (fun acc m -> acc + m.n) 0 ms })
        first

(* Shortest decimal that reads back as the same float. *)
let number v =
  let s = Printf.sprintf "%.15g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let better m = if m.higher then "higher" else "lower"

let metric_line ~workload m =
  Printf.sprintf "METRIC workload=%s name=%s value=%s unit=%s better=%s n=%d" workload m.name
    (number m.value) m.unit_ (better m) m.n

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.name (number m.value) m.unit_)
          metrics))

let metric_json m =
  Printf.sprintf {|{"name": "%s", "value": %s, "unit": "%s", "better": "%s", "n": %d}|} m.name
    (number m.value) m.unit_ (better m) m.n
