module M = Sp_sim.Metrics

type span = {
  sp_id : int;
  sp_parent : int;
  sp_depth : int;
  sp_task : int;
  sp_op : string;
  sp_src : string;
  sp_dst : string;
  sp_node : string;
  sp_start : int;
  sp_stop : int;
  sp_self_ns : int;
  sp_queue_ns : int;
  sp_metrics : M.snapshot;
  sp_self_metrics : M.snapshot;
  sp_copy_bytes : int;
  sp_cpu_units : int;
}

type instant = {
  in_name : string;
  in_ts : int;
  in_args : (string * string) list;
}

type trace = {
  tr_spans : span list;
  tr_instants : instant list;
  tr_dropped : int;
  tr_total_ns : int;
  tr_busy_ns : int;
  tr_root : int;
}

(* An open span.  Child inclusive time and metrics accumulate into the
   parent as children close, so a completed span carries its self figures
   directly and aggregation never needs to rebuild the tree (which would
   break when the ring buffer drops spans).

   Self time is *busy* time (Sched_hook per-context clocks), not wall
   time: under the discrete-event scheduler a frame stays open across its
   task's suspensions, during which the wall clock moves for other tasks'
   work.  With no scheduler active busy and wall deltas coincide, so the
   classic partition invariant (self times sum to the root's elapsed
   time) is unchanged; under concurrency the invariant becomes "self
   times sum to total busy time" ([tr_busy_ns]), per task and overall. *)
type frame = {
  fr_id : int;
  fr_parent : int;
  fr_depth : int;
  fr_task : int;
  fr_op : string;
  fr_src : string;
  fr_dst : string;
  fr_node : string;
  fr_start : int;
  fr_busy0 : int;
  fr_metrics0 : M.snapshot;
  fr_stolen0 : M.snapshot;
  mutable fr_child_ns : int;
  mutable fr_child_metrics : M.snapshot;
  mutable fr_queue_ns : int;
  mutable fr_copy_bytes : int;
  mutable fr_cpu_units : int;
}

(* Per-execution-context (main, or one task) trace state.  [stolen]
   accumulates the global-metrics delta consumed by *other* contexts
   while this one was suspended, so a frame's inclusive metrics can be
   corrected to what its own context actually did. *)
type ctx = {
  mutable stack : frame list;
  mutable stolen : M.snapshot;
  mutable pause_at : M.snapshot option;
}

type state = {
  ring : span option array;
  capacity : int;
  mutable next_slot : int;
  mutable recorded : int;
  mutable next_id : int;
  mutable root_id : int;
  main : ctx;
  tasks : (int, ctx) Hashtbl.t;
  mutable instants : instant list;  (** newest first; sparse, unbounded *)
}

let state : state option ref = ref None
let enabled () = match !state with None -> false | Some _ -> true

let fresh_ctx () = { stack = []; stolen = M.zero; pause_at = None }

let ctx_of st id =
  if id < 0 then st.main
  else
    match Hashtbl.find_opt st.tasks id with
    | Some c -> c
    | None ->
        let c = fresh_ctx () in
        Hashtbl.replace st.tasks id c;
        c

let cur_ctx st = ctx_of st (Sp_sim.Sched_hook.current ())

let open_frame st ~op ~src ~dst ~node =
  let id = st.next_id in
  st.next_id <- id + 1;
  let task = Sp_sim.Sched_hook.current () in
  let c = ctx_of st task in
  let parent, depth =
    match c.stack with
    | f :: _ -> (f.fr_id, f.fr_depth + 1)
    | [] ->
        (* A task's outermost frame hangs off the synthetic root (which
           lives in the main context) for tree rendering; its time and
           metrics do NOT accumulate into the root — cross-context busy
           time is not the root's own. *)
        if task >= 0 && st.root_id > 0 then (st.root_id, 1) else (0, 0)
  in
  let fr =
    {
      fr_id = id;
      fr_parent = parent;
      fr_depth = depth;
      fr_task = task;
      fr_op = op;
      fr_src = src;
      fr_dst = dst;
      fr_node = node;
      fr_start = Sp_sim.Simclock.now ();
      fr_busy0 = Sp_sim.Sched_hook.busy ();
      fr_metrics0 = M.snapshot ();
      fr_stolen0 = c.stolen;
      fr_child_ns = 0;
      fr_child_metrics = M.zero;
      fr_queue_ns = 0;
      fr_copy_bytes = 0;
      fr_cpu_units = 0;
    }
  in
  c.stack <- fr :: c.stack;
  fr

let record st sp =
  st.ring.(st.next_slot) <- Some sp;
  st.next_slot <- (st.next_slot + 1) mod st.capacity;
  st.recorded <- st.recorded + 1

(* A span closes in the context that opened it (its [Fun.protect] runs
   there, and an aborted run unwinds each task as the current task), so
   [busy ()] reads the frame's own busy clock; [with_tracing]'s cleanup
   of leaked frames is the one exception. *)
let close_frame st fr =
  let c = ctx_of st fr.fr_task in
  (match c.stack with
  | f :: rest when f == fr -> c.stack <- rest
  | _ ->
      (* Only reachable if a span body tampered with the stack; drop down
         to (and including) [fr] so accounting can continue. *)
      let rec pop = function
        | f :: rest when f == fr -> rest
        | _ :: rest -> pop rest
        | [] -> []
      in
      c.stack <- pop c.stack);
  let stop = Sp_sim.Simclock.now () in
  let incl_ns = Sp_sim.Sched_hook.busy () - fr.fr_busy0 in
  let incl_raw = M.diff ~before:fr.fr_metrics0 ~after:(M.snapshot ()) in
  (* Subtract what other contexts did while this one was suspended. *)
  let stolen_delta = M.diff ~before:fr.fr_stolen0 ~after:c.stolen in
  let incl_m = M.diff ~before:stolen_delta ~after:incl_raw in
  let sp =
    {
      sp_id = fr.fr_id;
      sp_parent = fr.fr_parent;
      sp_depth = fr.fr_depth;
      sp_task = fr.fr_task;
      sp_op = fr.fr_op;
      sp_src = fr.fr_src;
      sp_dst = fr.fr_dst;
      sp_node = fr.fr_node;
      sp_start = fr.fr_start;
      sp_stop = stop;
      sp_self_ns = incl_ns - fr.fr_child_ns;
      sp_queue_ns = fr.fr_queue_ns;
      sp_metrics = incl_m;
      sp_self_metrics = M.diff ~before:fr.fr_child_metrics ~after:incl_m;
      sp_copy_bytes = fr.fr_copy_bytes;
      sp_cpu_units = fr.fr_cpu_units;
    }
  in
  (match c.stack with
  | parent :: _ ->
      parent.fr_child_ns <- parent.fr_child_ns + incl_ns;
      parent.fr_child_metrics <- M.add parent.fr_child_metrics incl_m
  | [] -> ());
  record st sp

let span ?(op = "invoke") ?(src = "?") ?(dst = "?") ?(node = "local") f =
  match !state with
  | None -> f ()
  | Some st ->
      let fr = open_frame st ~op ~src ~dst ~node in
      Fun.protect ~finally:(fun () -> close_frame st fr) f

let instant ~name ?(args = []) () =
  match !state with
  | None -> ()
  | Some st ->
      st.instants <-
        { in_name = name; in_ts = Sp_sim.Simclock.now (); in_args = args }
        :: st.instants

let note_copy n =
  match !state with
  | Some st -> (
      match (cur_ctx st).stack with
      | fr :: _ -> fr.fr_copy_bytes <- fr.fr_copy_bytes + n
      | [] -> ())
  | None -> ()

let note_cpu n =
  match !state with
  | Some st -> (
      match (cur_ctx st).stack with
      | fr :: _ -> fr.fr_cpu_units <- fr.fr_cpu_units + n
      | [] -> ())
  | None -> ()

let note_queue n =
  match !state with
  | Some st -> (
      match (cur_ctx st).stack with
      | fr :: _ -> fr.fr_queue_ns <- fr.fr_queue_ns + n
      | [] -> ())
  | None -> ()

(* Scheduler hooks: bracket a task's suspension so the global-metrics
   delta other contexts produce meanwhile is charged to [stolen], not to
   the task's open frames. *)
let on_task_suspend () =
  match !state with
  | None -> ()
  | Some st -> (cur_ctx st).pause_at <- Some (M.snapshot ())

let on_task_resume () =
  match !state with
  | None -> ()
  | Some st -> (
      let c = cur_ctx st in
      match c.pause_at with
      | None -> ()
      | Some snap ->
          c.pause_at <- None;
          c.stolen <- M.add c.stolen (M.diff ~before:snap ~after:(M.snapshot ())))

let gather st ~root_id ~busy_ns =
  let n = min st.recorded st.capacity in
  let first =
    if st.recorded <= st.capacity then 0 else st.next_slot (* oldest survivor *)
  in
  let spans = ref [] in
  for i = n - 1 downto 0 do
    match st.ring.((first + i) mod st.capacity) with
    | Some sp -> spans := sp :: !spans
    | None -> ()
  done;
  let total_ns =
    match List.find_opt (fun sp -> sp.sp_id = root_id) !spans with
    | Some root -> root.sp_stop - root.sp_start
    | None -> 0
  in
  {
    tr_spans = !spans;
    tr_instants = List.rev st.instants;
    tr_dropped = max 0 (st.recorded - st.capacity);
    tr_total_ns = total_ns;
    tr_busy_ns = busy_ns;
    tr_root = root_id;
  }

let with_tracing ?(capacity = 65536) ?(root = "workload") f =
  if enabled () then invalid_arg "Sp_trace.with_tracing: tracing already active";
  if capacity < 2 then invalid_arg "Sp_trace.with_tracing: capacity < 2";
  let st =
    {
      ring = Array.make capacity None;
      capacity;
      next_slot = 0;
      recorded = 0;
      next_id = 1;
      root_id = 0;
      main = fresh_ctx ();
      tasks = Hashtbl.create 16;
      instants = [];
    }
  in
  state := Some st;
  let busy0 = Sp_sim.Sched_hook.total_busy () in
  let root_fr = open_frame st ~op:root ~src:"user" ~dst:"user" ~node:"local" in
  st.root_id <- root_fr.fr_id;
  match f () with
  | result ->
      (* Spans close themselves via [Fun.protect]; anything still open here
         besides the root means a caller leaked a frame — close those too so
         the root's accounting stays consistent.  A leaked task frame
         closes here in the main context, so its own busy figure is not
         meaningful. *)
      Hashtbl.iter
        (fun _ c ->
          List.iter (fun fr -> close_frame st fr) c.stack;
          c.stack <- [])
        st.tasks;
      while
        match st.main.stack with
        | fr :: _ when fr != root_fr ->
            close_frame st fr;
            true
        | _ -> false
      do
        ()
      done;
      close_frame st root_fr;
      state := None;
      ( result,
        gather st ~root_id:root_fr.fr_id
          ~busy_ns:(Sp_sim.Sched_hook.total_busy () - busy0) )
  | exception e ->
      state := None;
      raise e

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

type layer_stats = {
  agg_layer : string;
  agg_node : string;
  agg_count : int;
  agg_total_ns : int;
  agg_self_ns : int;
  agg_queue_ns : int;
  agg_crossings : int;
  agg_local_calls : int;
  agg_disk_reads : int;
  agg_disk_writes : int;
  agg_copy_bytes : int;
  agg_cpu_units : int;
}

let aggregate trace =
  let tbl : (string, layer_stats) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let key = sp.sp_dst in
      let prev =
        match Hashtbl.find_opt tbl key with
        | Some s -> s
        | None ->
            {
              agg_layer = sp.sp_dst;
              agg_node = sp.sp_node;
              agg_count = 0;
              agg_total_ns = 0;
              agg_self_ns = 0;
              agg_queue_ns = 0;
              agg_crossings = 0;
              agg_local_calls = 0;
              agg_disk_reads = 0;
              agg_disk_writes = 0;
              agg_copy_bytes = 0;
              agg_cpu_units = 0;
            }
      in
      Hashtbl.replace tbl key
        {
          prev with
          agg_count = prev.agg_count + 1;
          agg_total_ns = prev.agg_total_ns + (sp.sp_stop - sp.sp_start);
          agg_self_ns = prev.agg_self_ns + sp.sp_self_ns;
          agg_queue_ns = prev.agg_queue_ns + sp.sp_queue_ns;
          agg_crossings =
            prev.agg_crossings + sp.sp_self_metrics.M.cross_domain_calls;
          agg_local_calls = prev.agg_local_calls + sp.sp_self_metrics.M.local_calls;
          agg_disk_reads = prev.agg_disk_reads + sp.sp_self_metrics.M.disk_reads;
          agg_disk_writes = prev.agg_disk_writes + sp.sp_self_metrics.M.disk_writes;
          agg_copy_bytes = prev.agg_copy_bytes + sp.sp_copy_bytes;
          agg_cpu_units = prev.agg_cpu_units + sp.sp_cpu_units;
        })
    trace.tr_spans;
  Hashtbl.fold (fun _ s acc -> s :: acc) tbl []
  |> List.sort (fun a b -> compare (b.agg_self_ns, a.agg_layer) (a.agg_self_ns, b.agg_layer))

let duration ns = Format.asprintf "%a" Sp_sim.Simclock.pp_duration ns

let pp_profile ppf trace =
  let stats = aggregate trace in
  let busy =
    if trace.tr_busy_ns > 0 then trace.tr_busy_ns else trace.tr_total_ns
  in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "%-26s %7s %10s %10s %6s %9s %6s %6s %9s %10s %8s@,"
    "layer instance" "calls" "total" "self" "self%" "queued" "xdom" "local"
    "disk r/w" "copy" "cpu";
  Format.fprintf ppf "%s@," (String.make 120 '-');
  let pct self =
    if busy = 0 then 0.0 else 100.0 *. float_of_int self /. float_of_int busy
  in
  List.iter
    (fun s ->
      Format.fprintf ppf
        "%-26s %7d %10s %10s %5.1f%% %9s %6d %6d %4d/%-4d %10d %8d@,"
        (if s.agg_node = "local" then s.agg_layer
         else s.agg_layer ^ "@" ^ s.agg_node)
        s.agg_count (duration s.agg_total_ns) (duration s.agg_self_ns)
        (pct s.agg_self_ns) (duration s.agg_queue_ns) s.agg_crossings
        s.agg_local_calls s.agg_disk_reads s.agg_disk_writes s.agg_copy_bytes
        s.agg_cpu_units)
    stats;
  Format.fprintf ppf "%s@," (String.make 120 '-');
  let self_sum = List.fold_left (fun acc s -> acc + s.agg_self_ns) 0 stats in
  let queue_sum = List.fold_left (fun acc s -> acc + s.agg_queue_ns) 0 stats in
  Format.fprintf ppf "%-26s %7d %10s %10s %5.1f%% %9s@," "total"
    (List.length trace.tr_spans)
    (duration busy) (duration self_sum) (pct self_sum) (duration queue_sum);
  if trace.tr_busy_ns > trace.tr_total_ns then
    Format.fprintf ppf
      "(%s of wall time; busy exceeds wall when concurrent tasks overlap)@,"
      (duration trace.tr_total_ns);
  (match trace.tr_instants with
  | [] -> ()
  | instants ->
      Format.fprintf ppf "%d instant event(s) (faults/retries/failovers)@,"
        (List.length instants));
  if trace.tr_dropped > 0 then
    Format.fprintf ppf
      "warning: ring buffer overflowed, %d oldest spans dropped (self-times \
       no longer partition the total; raise the capacity)@,"
      trace.tr_dropped;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Each task renders as its own Chrome thread; the main context is tid 1. *)
let tid_of sp = if sp.sp_task < 0 then 1 else sp.sp_task + 2

let chrome_json trace =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  Buffer.add_string buf
    "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"springfs \
     (simulated)\"}}";
  (* Chrome infers nesting of complete events on one thread from the
     timestamps; emit parents before their children at equal start times. *)
  let ordered =
    List.sort
      (fun a b ->
        if a.sp_start <> b.sp_start then compare a.sp_start b.sp_start
        else compare a.sp_depth b.sp_depth)
      trace.tr_spans
  in
  List.iter
    (fun sp ->
      Buffer.add_string buf ",";
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"door\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"src\":\"%s\",\"dst\":\"%s\",\"node\":\"%s\",\"task\":%d,\"span_id\":%d,\"parent\":%d,\"depth\":%d,\"self_ns\":%d,\"queue_ns\":%d,\"cross_domain_calls\":%d,\"local_calls\":%d,\"kernel_calls\":%d,\"page_faults\":%d,\"disk_reads\":%d,\"disk_writes\":%d,\"net_messages\":%d,\"copy_bytes\":%d,\"cpu_units\":%d}}"
           (json_escape (sp.sp_op ^ " \xc2\xbb " ^ sp.sp_dst))
           (float_of_int sp.sp_start /. 1000.0)
           (float_of_int (sp.sp_stop - sp.sp_start) /. 1000.0)
           (tid_of sp)
           (json_escape sp.sp_src) (json_escape sp.sp_dst)
           (json_escape sp.sp_node) sp.sp_task sp.sp_id sp.sp_parent sp.sp_depth
           sp.sp_self_ns sp.sp_queue_ns sp.sp_metrics.M.cross_domain_calls
           sp.sp_metrics.M.local_calls sp.sp_metrics.M.kernel_calls
           sp.sp_metrics.M.page_faults sp.sp_metrics.M.disk_reads
           sp.sp_metrics.M.disk_writes sp.sp_metrics.M.net_messages
           sp.sp_copy_bytes sp.sp_cpu_units))
    ordered;
  List.iter
    (fun inst ->
      Buffer.add_string buf ",";
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"fault\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{"
           (json_escape inst.in_name)
           (float_of_int inst.in_ts /. 1000.0));
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",";
          Buffer.add_string buf
            (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
        inst.in_args;
      Buffer.add_string buf "}}")
    trace.tr_instants;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let write_chrome_json file trace =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_json trace))
