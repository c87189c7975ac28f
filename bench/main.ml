(* Benchmark harness.

   Regenerates every table and figure of the paper's evaluation over the
   deterministic simulated clock (the substitute for the paper's
   SPARCstation 10 — see DESIGN.md): Table 2, Table 3, the Figure 2
   channel observables, the Figure 5/6 COMPFS modes, the ablations and
   the extension tables, all from the one list in [Sp_benchlib.Tables].
   [--json FILE] writes the rows of the tables in BENCH_10.json;
   [--check-perf FILE] compares a fresh run against such a file exactly;
   [--profile] adds a per-layer breakdown of the Table 2 hot paths. *)

module F = Sp_core.File
module S = Sp_core.Stackable
module W = Sp_benchlib.Workload
module PJ = Sp_benchlib.Perf_json
module Tables = Sp_benchlib.Tables

let ps = Sp_vm.Vm_types.page_size

(* Optional per-layer breakdown (--profile): attribute the simulated time
   of the Table 2 stacked hot paths to individual layer instances via
   Sp_trace, alongside the tables. *)
let per_layer_breakdown () =
  let ppf = Format.std_formatter in
  Tables.reset_world ();
  Sp_sim.Cost_model.with_model Sp_sim.Cost_model.paper_1993 (fun () ->
      let inst = Sp_benchlib.Workload.make_instance ~tag:"prof" Sp_benchlib.Workload.Stacked_two_domains in
      let data = Bytes.make ps 'p' in
      let (), trace =
        Sp_trace.with_tracing ~root:"bench" (fun () ->
            for _ = 1 to 10 do
              ignore (F.write inst.W.i_file ~pos:0 data);
              ignore (F.read inst.W.i_file ~pos:0 ~len:ps);
              ignore (F.stat inst.W.i_file)
            done;
            S.sync inst.W.i_fs)
      in
      Format.fprintf ppf
        "@.Per-layer breakdown: 10 x warm (write4k+read4k+stat) on the \
         two-domain stack (paper_1993)@.%a@."
        Sp_trace.pp_profile trace)

let write_json file =
  let rows = Tables.rows () in
  let oc = open_out file in
  output_string oc (PJ.to_string rows);
  close_out oc;
  Printf.printf "wrote %d benchmark rows to %s\n" (List.length rows) file

let check_perf baseline_file =
  let baseline =
    let ic = open_in_bin baseline_file in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    PJ.parse s
  in
  let fresh = Tables.rows () in
  let verdicts = PJ.check ~baseline ~fresh in
  List.iter
    (function
      | PJ.Changed (r, base) ->
          Printf.printf "CHANGED %s/%s: %d ns -> %d ns\n" r.table r.label base r.ns
      | PJ.Missing r ->
          Printf.printf "MISSING %s/%s: baseline row absent from this run\n" r.table
            r.label
      | PJ.Added r ->
          Printf.printf "ADDED   %s/%s: %d ns, absent from %s\n" r.table r.label r.ns
            baseline_file)
    verdicts;
  Printf.printf "PERF status=%s rows=%d baseline=%d\n"
    (if verdicts = [] then "ok" else "changed")
    (List.length fresh) (List.length baseline);
  if verdicts <> [] then exit 1

let arg_value flag =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then None
    else if String.equal Sys.argv.(i) flag then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let () =
  match (arg_value "--json", arg_value "--check-perf") with
  | Some file, _ -> write_json file
  | None, Some baseline -> check_perf baseline
  | None, None ->
      Tables.print Format.std_formatter [];
      if Array.exists (String.equal "--profile") Sys.argv then per_layer_breakdown ()
