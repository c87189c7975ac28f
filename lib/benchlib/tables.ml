let reset_world () =
  Sp_sim.Simclock.reset ();
  Sp_sim.Metrics.reset ()

(* One simulated table: the name [springfs tables] selects it by, how to
   run and print it, and, for the tables in BENCH_10.json, how to run it
   and hand each (label, ns) row to [add]. *)
type entry = {
  name : string;
  print : Format.formatter -> unit;
  rows : ((string -> int -> unit) -> unit) option;
}

let table2_rows add =
  let config_names = [| "not stacked"; "one domain"; "two domains" |] in
  List.iter
    (fun (r : Table2.row) ->
      let cached =
        match r.cached with
        | None -> ""
        | Some true -> " cached"
        | Some false -> " uncached"
      in
      Array.iteri
        (fun i ns ->
          add (Printf.sprintf "%s%s, %s" r.operation cached config_names.(i)) ns)
        r.ns)
    (Table2.run ())

let table3_rows add =
  List.iter
    (fun (r : Table3.row) ->
      add (r.operation ^ ", sunos") r.sunos_ns;
      add (r.operation ^ ", spring") r.spring_ns)
    (Table3.run ())

let ablation_rows add =
  List.iter
    (fun (r : Ablations.result) ->
      add (r.label ^ ", baseline") r.baseline_ns;
      add (r.label ^ ", variant") r.variant_ns)
    (Ablations.run_all ())

let bulk_rows add =
  List.iter
    (fun (r : Bulk_bench.row) ->
      add (r.label ^ ", off") r.off_ns;
      add (r.label ^ ", on") r.on_ns)
    (Bulk_bench.run ())

let macro_rows add =
  List.iter
    (fun (r : Macro.result) -> add (Workload.config_label r.config) r.total_ns)
    (Macro.run ())

let scale_rows add =
  List.iter
    (fun (r : Scale.row) ->
      let label fmt = Printf.sprintf "%d clients, %s" r.sc_clients fmt in
      add (label "p50") r.sc_p50_ns;
      add (label "p99") r.sc_p99_ns;
      add (label "p999") r.sc_p999_ns;
      add (label "elapsed") r.sc_elapsed_ns)
    (Scale.run ())

let availability_rows add =
  List.iter
    (fun (r : Failover.avail_row) ->
      let label fmt = Printf.sprintf "%d clients, %s" r.a_clients fmt in
      add (label "worst recover") r.a_recover_ns;
      add (label "ops served") r.a_op_served;
      add (label "retried") r.a_retried)
    (Failover.avail ())

let namespace_rows add =
  let ns = Namespace.run () in
  List.iter
    (fun (r : Namespace.open_row) ->
      (match r.no_flat_ns with
      | Some flat ->
          add (Printf.sprintf "cold open, flat, %d entries" r.no_entries) flat
      | None -> ());
      add (Printf.sprintf "cold open, indexed, %d entries" r.no_entries)
        r.no_indexed_ns)
    ns.Namespace.t_opens;
  let c = ns.Namespace.t_cache in
  add "open, two domains, name-cache miss" c.nc_cold_ns;
  add "open, two domains, name-cache hit" c.nc_warm_ns;
  add "name-cache hit ratio (percent)" c.nc_hit_pct;
  let r = ns.Namespace.t_readdir in
  add (Printf.sprintf "readdir stream, %d entries" r.nr_entries) r.nr_ns

let dfs_rows add =
  List.iter
    (fun (r : Dfs_bench.row) ->
      let label fmt = Printf.sprintf "%d nodes, %s" r.d_nodes fmt in
      add (label "elapsed") r.d_elapsed_ns;
      add (label "control elapsed") r.d_ctl_elapsed_ns;
      add (label "warm hits") r.d_warm_hits;
      add
        (label "control messages per 32 opens")
        (int_of_float (r.d_ctl_open_msgs *. 32.)))
    (Dfs_bench.run ())

let journal_rows add =
  List.iter
    (fun (r : Journal_bench.row) ->
      let label fmt = Printf.sprintf "%d clients, %s" r.sc_clients fmt in
      add (label "syncs") r.sc_syncs;
      add (label "commits") r.sc_commits;
      add (label "absorbed") r.sc_absorbed;
      add (label "sync p99") r.sc_sync_p99_ns;
      add (label "elapsed") r.sc_elapsed_ns)
    (Journal_bench.run ())

let table ?rows name print = { name; print; rows }

(* Print order; the row tables run in the same order, so the JSON rows
   follow it too. *)
let all =
  [
    table "table2" ~rows:table2_rows (fun ppf -> Table2.print ppf (Table2.run ()));
    table "table3" ~rows:table3_rows (fun ppf -> Table3.print ppf (Table3.run ()));
    table "figures" (fun ppf -> Figures.print ppf ());
    table "ablations" ~rows:ablation_rows (fun ppf ->
        Ablations.print ppf (Ablations.run_all ()));
    table "bulk" ~rows:bulk_rows (fun ppf -> Bulk_bench.print ppf (Bulk_bench.run ()));
    table "depth" (fun ppf ->
        Ablations.print_depth_sweep ppf (Ablations.depth_sweep ()));
    table "macro" ~rows:macro_rows (fun ppf -> Macro.print ppf (Macro.run ()));
    table "faults" (fun ppf -> Faults.print ppf (Faults.run ()));
    table "failover" (fun ppf -> Failover.print ppf (Failover.run ()));
    table "scrub" (fun ppf -> Scrub.print ppf (Scrub.run ()));
    table "scale" ~rows:scale_rows (fun ppf -> Scale.print ppf (Scale.run ()));
    table "availability" ~rows:availability_rows (fun ppf ->
        Failover.print_avail ppf (Failover.avail ()));
    table "namespace" ~rows:namespace_rows (fun ppf ->
        Namespace.print ppf (Namespace.run ()));
    table "dfs" ~rows:dfs_rows (fun ppf -> Dfs_bench.print ppf (Dfs_bench.run ()));
    table "journal" ~rows:journal_rows (fun ppf ->
        Journal_bench.print ppf (Journal_bench.run ()));
  ]

let names = List.map (fun e -> e.name) all

let iter selected f =
  List.iter
    (fun e ->
      if selected = [] || List.mem e.name selected then begin
        reset_world ();
        f e.name (fun ppf ->
            e.print ppf;
            Format.fprintf ppf "@.")
      end)
    all

let print ppf selected =
  Format.fprintf ppf
    "springfs benchmark harness — reproduction of \"Extensible File Systems \
     in Spring\" (SOSP '93)@.\
     Simulated substrate: 40MHz-SPARCstation-class cost model \
     (see DESIGN.md, EXPERIMENTS.md).@.@.";
  iter selected (fun _ print -> print ppf)

let rows () =
  List.concat_map
    (fun e ->
      match e.rows with
      | None -> []
      | Some run ->
          reset_world ();
          let acc = ref [] in
          run (fun label ns -> acc := { Perf_json.table = e.name; label; ns } :: !acc);
          List.rev !acc)
    all
