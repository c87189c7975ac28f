(* One springbench round: build a fresh world, run the workload's closed
   loop once under [Sp_sched], and check the results.  Simulated time
   comes from [Simclock] around each client call; wall time and
   allocation from the monotonic clock and the GC around the
   [Sp_sched.run] call; per-layer counts from the public stats of each
   layer.  Nothing is added inside the program. *)

module W = Workload
module M = Sp_sim.Metrics
module Disk = Sp_blockdev.Disk

let wall_ns () = Int64.to_int (Monotonic_clock.now ())

type call_stats = { count : int; p50_ns : int; p99_ns : int }

type trace_stats = {
  shares : (string * float * float) list;  (** per role: self share, queue share *)
  spans : int;
  dropped : int;
  resident_peak : int;  (** most pages the VMM held at an op boundary *)
}

type round = {
  workload : W.t;
  ops : int;
  errors : int;  (** client ops that raised or read wrong bytes *)
  checks_failed : int;  (** post-run checks that failed *)
  failures : string list;  (** first op error, then every failed check *)
  digest : int;
  switches : int;
  p50_ns : int;  (** simulated latency of a client op *)
  p99_ns : int;
  p999_ns : int;
  latency_ns : int;  (** summed over all ops *)
  calls : call_stats array;  (** by [W.call_index] *)
  elapsed_ns : int;  (** simulated, first arrival to last completion *)
  counters : M.snapshot;  (** delta over the run *)
  disk : Disk.stats;  (** summed over every disk of the world *)
  journal : int * int * int;  (** commits, journal writes, absorbed syncs *)
  evictions : int;
  naming : int * int;  (** name-cache hits, misses *)
  used_bytes : int;  (** data blocks in use after the run, in bytes *)
  live_bytes : int;  (** bytes of file data the world holds *)
  setup_wall_ns : int;
  run_wall_ns : int;
  alloc_bytes : float;
  minor_gcs : int;
  major_gcs : int;
  promoted_bytes : float;
  top_heap_bytes : int;
  trace : trace_stats option;
}

let roles = [ "client"; "coh"; "sfs"; "vmm"; "kernel"; "mirror"; "comp"; "unattributed" ]

(* Layer instance names carry the world's tag; map a span to the role of
   the layer that served it.  The disk layer's flush opens its
   [journal.commit] span without naming a domain. *)
let role ~tag (sp : Sp_trace.span) =
  let dst = sp.sp_dst in
  let starts p = String.starts_with ~prefix:p dst in
  if String.equal dst "(kernel)" then "kernel"
  else if starts "task:" then "client"
  else if starts "vmm:" then "vmm"
  else if String.ends_with ~suffix:".disk" dst then "sfs"
  else if String.equal dst (tag ^ ".m") then "mirror"
  else if String.equal dst (tag ^ ".z") then "comp"
  else if List.mem dst [ tag; tag ^ "a"; tag ^ "b" ] then "coh"
  else if String.equal sp.sp_op "journal.commit" then "sfs"
  else "unattributed"

let share a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Self time as a share of busy time (self times sum to it), and queue
   wait as a share of all queue wait: a waiting task is idle, so queue
   time is not part of busy time. *)
let role_shares (tr : Sp_trace.trace) ~tag =
  let sum ?ro f =
    List.fold_left
      (fun acc (sp : Sp_trace.span) ->
        if Option.fold ro ~none:true ~some:(String.equal (role ~tag sp)) then acc + f sp else acc)
      0 tr.tr_spans
  in
  let self (sp : Sp_trace.span) = sp.sp_self_ns and queue (sp : Sp_trace.span) = sp.sp_queue_ns in
  let queued = sum queue in
  List.map (fun ro -> (ro, share (sum ~ro self) tr.tr_busy_ns, share (sum ~ro queue) queued)) roles

(* Scale's percentile: the sample at rank [n * per_mille / 1000]. *)
let percentile sorted per_mille =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(min (n - 1) (n * per_mille / 1000))

let disk_stats disks =
  List.fold_left
    (fun (acc : Disk.stats) d ->
      let s = Disk.stats d in
      { reads = acc.reads + s.reads; writes = acc.writes + s.writes; seeks = acc.seeks + s.seeks })
    { reads = 0; writes = 0; seeks = 0 }
    disks

let journal_stats (world : W.world) =
  List.fold_left
    (fun (c, w, a) base ->
      match Sp_sfs.Disk_layer.journal_stats (W.disk_layer_of base) with
      | Some s -> (c + s.Sp_sfs.Journal.js_commits, w + s.js_journal_writes, a + s.js_absorbed_syncs)
      | None -> (c, w, a))
    (0, 0, 0) world.bases

let name_stats (world : W.world) =
  match world.cache with
  | Some cache ->
      let s = Sp_naming.Name_cache.stats cache in
      (s.hits, s.misses)
  | None -> (0, 0)

let round_in_process ~tag ~clients ~ops ~trace w ~seed =
  let ops_per_client = max 1 (ops / clients) in
  let total = clients * ops_per_client in
  (* Recording backtraces makes every raise allocate, and the layers raise
     and catch on their normal paths; keep allocation independent of
     OCAMLRUNPARAM. *)
  Printexc.record_backtrace false;
  Sp_sim.Simclock.reset ();
  M.reset ();
  Sp_sim.Cost_model.with_model Sp_sim.Cost_model.paper_1993 @@ fun () ->
  let s0 = wall_ns () in
  let world = W.setup w ~tag in
  let setup_wall_ns = wall_ns () - s0 in
  let op_ns = Array.make total 0 in
  let filled = ref 0 in
  (* No op makes more than two timed calls. *)
  let call_ns = Array.make (2 * total) 0 in
  let call_kind = Bytes.make (2 * total) '\000' in
  let ncalls = ref 0 in
  let timer =
    {
      W.timed =
        (fun call f ->
          let t0 = Sp_sim.Simclock.now () in
          let r = f () in
          call_ns.(!ncalls) <- Sp_sim.Simclock.now () - t0;
          Bytes.set call_kind !ncalls (Char.chr (W.call_index call));
          incr ncalls;
          r);
    }
  in
  let errors = ref 0 and first_error = ref [] in
  let resident_peak = ref 0 in
  let client k () =
    let rng = Sp_fault.Rng.create (seed + ((k + 1) * 2654435761)) in
    Sp_sched.sleep (k * W.arrival_gap_ns);
    for op = 1 to ops_per_client do
      let t0 = Sp_sim.Simclock.now () in
      (* One failed op must not abort the run: count it and go on. *)
      (try W.op w world rng ~client:k ~op timer with
      | Sp_sched.Aborted as e -> raise e
      | e ->
          incr errors;
          if !first_error = [] then
            first_error := [ Printf.sprintf "client %d op %d: %s" k op (Printexc.to_string e) ]);
      op_ns.(!filled) <- Sp_sim.Simclock.now () - t0;
      incr filled;
      if trace then
        resident_peak := max !resident_peak (Sp_vm.Vmm.total_cached_pages world.vmm)
    done
  in
  let tasks = List.init clients client in
  let m0 = M.snapshot () and d0 = disk_stats world.disks and j0 = journal_stats world in
  let ev0 = Sp_vm.Vmm.evictions world.vmm in
  let n0 = name_stats world in
  let t0 = Sp_sim.Simclock.now () in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  let w0 = wall_ns () in
  let stats, tr =
    if trace then
      let stats, tr =
        Sp_trace.with_tracing ~root:"springbench" (fun () -> Sp_sched.run ~seed tasks)
      in
      (stats, Some tr)
    else (Sp_sched.run ~seed tasks, None)
  in
  let w1 = wall_ns () in
  let a1 = Gc.allocated_bytes () in
  let g1 = Gc.quick_stat () in
  let elapsed_ns = max 1 (Sp_sim.Simclock.now () - t0) in
  let counters = M.diff ~before:m0 ~after:(M.snapshot ()) in
  let d1 = disk_stats world.disks in
  let c0, jw0, ab0 = j0 and c1, jw1, ab1 = journal_stats world in
  let h0, mi0 = n0 and h1, mi1 = name_stats world in
  let evictions = Sp_vm.Vmm.evictions world.vmm - ev0 in
  let checks = W.verify w world in
  let used_bytes = (world.free0 - W.free_blocks world.bases) * Disk.block_size in
  let op_ns = Array.sub op_ns 0 !filled in
  Array.sort compare op_ns;
  let calls =
    Array.of_list
      (List.map
         (fun call ->
           let k = Char.chr (W.call_index call) in
           let s = ref [] in
           for i = !ncalls - 1 downto 0 do
             if Bytes.get call_kind i = k then s := call_ns.(i) :: !s
           done;
           let s = Array.of_list !s in
           Array.sort compare s;
           { count = Array.length s; p50_ns = percentile s 500; p99_ns = percentile s 990 })
         W.calls)
  in
  {
    workload = w;
    ops = total;
    errors = !errors;
    checks_failed = List.length checks;
    failures = !first_error @ checks;
    digest = stats.Sp_sched.st_digest;
    switches = stats.st_switches;
    p50_ns = percentile op_ns 500;
    p99_ns = percentile op_ns 990;
    p999_ns = percentile op_ns 999;
    latency_ns = Array.fold_left ( + ) 0 op_ns;
    calls;
    elapsed_ns;
    counters;
    disk = { reads = d1.reads - d0.reads; writes = d1.writes - d0.writes; seeks = d1.seeks - d0.seeks };
    journal = (c1 - c0, jw1 - jw0, ab1 - ab0);
    evictions;
    naming = (h1 - h0, mi1 - mi0);
    used_bytes;
    live_bytes = Array.length world.files * world.file_len;
    setup_wall_ns;
    run_wall_ns = w1 - w0;
    alloc_bytes = a1 -. a0;
    minor_gcs = g1.minor_collections - g0.minor_collections;
    major_gcs = g1.major_collections - g0.major_collections;
    promoted_bytes = (g1.promoted_words -. g0.promoted_words) *. float_of_int (Sys.word_size / 8);
    top_heap_bytes = g1.top_heap_words * (Sys.word_size / 8);
    trace =
      Option.map
        (fun (tr : Sp_trace.trace) ->
          {
            shares = role_shares tr ~tag;
            spans = List.length tr.tr_spans;
            dropped = tr.tr_dropped;
            resident_peak = !resident_peak;
          })
        tr;
  }

(* Run [f] in a forked child and return its result.  Layers register
   their instances in process-wide tables keyed by instance name, and
   those names order some of the simulation's work (a journaled
   volume's sync walks its files in hash order), so every round is run
   in a child forked from the same parent: each round sees the same
   names and the same heap, and nothing of one round outlives it. *)
let isolated (f : unit -> 'a) : 'a =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc result [];
      close_out oc;
      flush stderr;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let result = try Marshal.from_channel ic with End_of_file -> Error "the round process died" in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match result with Ok v -> v | Error msg -> failwith msg)

(* [ops] and [clients] default to the workload's own sizes, and [tag] to
   ["sb"]; tests pass smaller sizes, and Scale's tag to compare against
   it.  With [trace] the run is recorded by [Sp_trace]. *)
let run ?(tag = "sb") ?clients ?ops ?(trace = false) w ~seed =
  let clients = Option.value clients ~default:(W.clients w) in
  let ops = Option.value ops ~default:(W.ops w) in
  isolated (fun () -> round_in_process ~tag ~clients ~ops ~trace w ~seed)

let failed r = r.errors + r.checks_failed
