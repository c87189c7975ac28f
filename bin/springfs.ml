(* springfs — configuration tool and scenario driver for the simulated
   Spring extensible file system (the "proper extensible file system
   configuration tools" the paper lists as ongoing work, 8).

   The whole system is an in-process simulation, so each invocation builds
   a world, runs a scenario, and reports simulated time plus event
   counters. *)

module F = Sp_core.File
module S = Sp_core.Stackable
module N = Sp_node.Node

let path = Sp_naming.Sname.of_string

let setup_base () =
  let world = N.World.create () in
  let alpha = N.World.add_node world "alpha" in
  ignore (N.add_disk alpha ~name:"disk0" ~blocks:8192);
  Sp_sfs.Disk_layer.mkfs (N.disk alpha "disk0");
  let sfs = N.mount_sfs alpha ~disk_name:"disk0" ~name:"sfs0" in
  (world, alpha, sfs)

(* --- springfs stack --- *)

let stack_workload top ops size verbose =
  Format.printf "stack: %s@."
    (String.concat " -> "
       (List.map (fun l -> l.S.sfs_type) (Sp_core.Stack_builder.layers top)));
  let before = Sp_sim.Metrics.snapshot () in
  let t0 = Sp_sim.Simclock.now () in
  let f = S.create top (path "workload") in
  let data = Bytes.init size (fun i -> Char.chr (i land 0xff)) in
  for i = 1 to ops do
    ignore (F.write f ~pos:0 data);
    ignore (F.read f ~pos:0 ~len:size);
    ignore (F.stat f);
    if verbose && i mod 50 = 0 then Format.printf "  ... %d/%d ops@." i ops
  done;
  S.sync top;
  let elapsed = Sp_sim.Simclock.now () - t0 in
  let d = Sp_sim.Metrics.diff ~before ~after:(Sp_sim.Metrics.snapshot ()) in
  Format.printf "%d x (write+read+stat) of %d bytes: %a simulated@." ops size
    Sp_sim.Simclock.pp_duration elapsed;
  Format.printf "events: %a@." Sp_sim.Metrics.pp d;
  0

(* A stack that cannot be built, or that turns out unusable once the
   workload starts (a mirror given one underlay), ends the run with one
   [stack error:] line and exit code 1. *)
let run_stack layers ops size verbose =
  let _world, alpha, sfs = setup_base () in
  let spec = List.mapi (fun i t -> (t, Printf.sprintf "%s%d" t i)) layers in
  try stack_workload (N.build_stack alpha ~base:sfs spec) ops size verbose
  with S.Stack_error msg ->
    prerr_endline ("stack error: " ^ msg);
    exit 1

(* --- springfs tables --- *)

let run_tables which =
  Sp_benchlib.Tables.print Format.std_formatter which;
  0

(* --- springfs demo --- *)

let run_demo () =
  let world, alpha, sfs = setup_base () in
  let top =
    N.build_stack alpha ~base:sfs [ ("cryptfs", "crypt0"); ("compfs", "comp0") ]
  in
  Format.printf "demo stack: %s@."
    (String.concat " -> "
       (List.map (fun l -> l.S.sfs_type) (Sp_core.Stack_builder.layers top)));
  let f = S.create top (path "secret-report") in
  let text =
    Bytes.of_string
      (String.concat "\n" (List.init 500 (fun i -> Printf.sprintf "line %d: classified" i)))
  in
  ignore (F.write f ~pos:0 text);
  S.sync top;
  Format.printf "wrote %d bytes through compression+encryption@." (Bytes.length text);
  Format.printf "read back (first line): %s@."
    (Bytes.to_string (F.read f ~pos:0 ~len:18));
  let raw = F.read_all (S.open_file sfs (path "secret-report")) in
  Format.printf "base volume holds %d bytes of ciphertext container@."
    (Bytes.length raw);
  (* A remote client via DFS still sees plaintext. *)
  let dfs = N.build_stack alpha ~base:top [ ("dfs", "dfs0") ] in
  let import = Sp_dfs.Dfs.import ~net:(N.World.net world) ~client_node:"beta" dfs in
  Format.printf "remote client reads: %s@."
    (Bytes.to_string
       (F.read (S.open_file import (path "secret-report")) ~pos:0 ~len:18));
  0

(* --- springfs fsck --- *)

(* One-line machine-readable verdict: status, total count, then a count
   per problem category (stable names, stable order). *)
let fsck_summary problems =
  let count pred = List.length (List.filter pred problems) in
  let open Sp_sfs.Fsck in
  let cats =
    [
      ("unreachable_inode", count (function Unreachable_inode _ -> true | _ -> false));
      ("free_inode_referenced", count (function Free_inode_referenced _ -> true | _ -> false));
      ("bad_kind", count (function Bad_kind _ -> true | _ -> false));
      ("block_out_of_range", count (function Block_out_of_range _ -> true | _ -> false));
      ("block_double_use", count (function Block_double_use _ -> true | _ -> false));
      ("block_not_allocated", count (function Block_not_allocated _ -> true | _ -> false));
      ("block_leak", count (function Block_leak _ -> true | _ -> false));
      ("bad_nlink", count (function Bad_nlink _ -> true | _ -> false));
      ("checksum", count (function Checksum_mismatch _ -> true | _ -> false));
      ("dirindex", count (function Dir_index _ -> true | _ -> false));
    ]
  in
  Printf.sprintf "FSCK status=%s problems=%d%s"
    (if problems = [] then "clean" else "inconsistent")
    (List.length problems)
    (String.concat ""
       (List.filter_map
          (fun (name, n) -> if n = 0 then None else Some (Printf.sprintf " %s=%d" name n))
          cats))

let run_fsck ops journal crash_at no_recover verify_checksums =
  (match crash_at with
  | Some n when n < 1 ->
      Format.eprintf "springfs: --crash-at-write must be at least 1 (got %d)@." n;
      exit 2
  | _ -> ());
  let disk = Sp_blockdev.Disk.create ~label:"fsckdev" ~blocks:8192 () in
  Sp_sfs.Disk_layer.mkfs ~journal disk;
  let sfs = Sp_sfs.Disk_layer.mount ~name:"fsck0" disk in
  let workload () =
    S.mkdir sfs (path "dir");
    let f = S.create sfs (path "dir/file") in
    for i = 0 to ops - 1 do
      ignore (F.write f ~pos:(i * 512) (Bytes.make 512 (Char.chr (i land 0xff))))
    done;
    ignore (S.create sfs (path "doomed"));
    S.sync sfs;
    (* Second transaction reusing freed resources: a crash mid-flush here
       can leave mixed old/new metadata on an unjournaled volume. *)
    S.remove sfs (path "doomed");
    let g = S.create sfs (path "dir/file2") in
    ignore (F.write g ~pos:0 (Bytes.make 2048 'x'));
    F.truncate f (max 1 (ops * 256));
    S.sync sfs
  in
  (match crash_at with
  | None -> workload ()
  | Some n -> (
      let plan =
        Sp_fault.plan ~seed:n
          [ Sp_fault.rule ~point:"disk.write" ~label:"fsckdev" ~after:(n - 1)
              ~count:1 Sp_fault.Fail_stop ]
      in
      match Sp_fault.with_plan plan workload with
      | () -> Format.printf "fsck: workload completed before write %d@." n
      | exception Sp_fault.Crash msg -> Format.printf "fsck: %s@." msg));
  if not no_recover then begin
    let replayed = Sp_sfs.Disk_layer.recover disk in
    if replayed > 0 then Format.printf "fsck: journal replayed %d block(s)@." replayed
  end;
  let problems = Sp_sfs.Fsck.check ~verify_checksums disk in
  List.iter (Format.printf "fsck: %a@." Sp_sfs.Fsck.pp_problem) problems;
  print_endline (fsck_summary problems);
  if problems = [] then 0 else 1

(* --- springfs crash | scrub | failover | dfs-sweep --- *)

(* Each sweep subcommand selects a scenario; [Sp_sweep] runs it, prints
   the verdict line (plus one FIRST-FAILURE line if a point failed) and
   decides the exit code: 0 pass, 1 verdict failure.  Usage errors exit
   2 before anything runs. *)
let at_least min (flag, v) =
  if v < min then (
    Format.eprintf "springfs: %s must be at least %d (got %d)@." flag min v;
    exit 2)

let run_crash ops seed stride clients sync_heavy no_journal no_checksums torn
    expect_inconsistent =
  List.iter (at_least 1) [ ("--stride", stride); ("--ops", ops); ("--clients", clients) ];
  let checksums = not no_checksums in
  let s =
    Sp_sfs.Crash_sweep.scenario ~torn ~checksums ~clients ~sync_heavy
      ~journal:(not no_journal) ~ops ~seed ()
  in
  (* Checksum-detected damage is still damage: a journaled volume must
     recover to a state where nothing is flagged.  The inverted arm needs
     damage — and with torn writes and checksums on, damage the checksums
     positively detected, not merely lost. *)
  let expect =
    if not expect_inconsistent then Sp_sweep.Clean
    else if torn && checksums then Sp_sweep.Some_in [ "detected" ]
    else Sp_sweep.Some_in s.Sp_sweep.failing
  in
  Sp_sweep.finish expect [ Sp_sweep.run ~stride s ]

let run_scrub ops seed stride clients no_checksums mirror expect_undetected =
  List.iter (at_least 1) [ ("--stride", stride); ("--ops", ops); ("--clients", clients) ];
  let module CS = Sp_integrity.Corruption_sweep in
  Sp_sweep.finish
    (if expect_undetected then Sp_sweep.Some_in [ "silent" ] else Sp_sweep.Clean)
    (List.map
       (fun kind ->
         Sp_sweep.run ~stride
           (CS.scenario ~checksums:(not no_checksums) ~mirror ~clients ~kind
              ~ops ~seed ()))
       [ CS.Bitrot; CS.Misdirected; CS.Lost ])

let run_failover ops seed stride clients deadline_ms no_supervisor
    expect_unavailable =
  List.iter (at_least 1) [ ("--stride", stride); ("--ops", ops); ("--clients", clients) ];
  Option.iter (fun d -> at_least 1 ("--deadline-ms", d)) deadline_ms;
  (* The default SLO scales with offered load: queueing alone makes tail
     latency grow roughly linearly in the client count (see `scale`), so a
     fixed deadline would fail on queue depth rather than on failover. *)
  let deadline_ms = Option.value deadline_ms ~default:(max 1000 (100 * clients)) in
  Sp_sweep.finish
    (if expect_unavailable then Sp_sweep.Every "unavailable" else Sp_sweep.Clean)
    [
      Sp_sweep.run ~stride
        (Sp_failover.Layer_crash_sweep.scenario ~supervised:(not no_supervisor)
           ~clients ~op_deadline_ns:(deadline_ms * 1_000_000) ~ops ~seed ());
    ]

let run_dfs_sweep nodes clients ops seed stride partition no_leases deadline_ms
    expect_unavailable =
  List.iter (at_least 1) [ ("--nodes", nodes); ("--clients", clients) ];
  if partition && clients < 2 then (
    Format.eprintf "springfs: --partition needs at least 2 clients@.";
    exit 2);
  List.iter (at_least 1) [ ("--stride", stride); ("--ops", ops) ];
  Option.iter (fun d -> at_least 1 ("--deadline-ms", d)) deadline_ms;
  (* Load-scaled SLO like `failover`, but much looser: a cluster op is
     an RPC into a shard whose device serves clients/nodes closed-loop
     queues through two journaled twins behind a mirror, and a store
     restart replays both journals before the first retried op lands —
     the op tail under a kill runs to seconds, not the failover sweep's
     hundreds of milliseconds. *)
  let deadline_ms = Option.value deadline_ms ~default:(max 3000 (1000 * clients)) in
  let lease_ns = if no_leases then 0 else Sp_cluster.Cluster.default_lease_ns in
  Sp_sweep.finish
    (if expect_unavailable then Sp_sweep.Every "unavailable" else Sp_sweep.Clean)
    [
      Sp_sweep.run ~stride
        (Sp_cluster.Shard_crash_sweep.scenario ~partition ~lease_ns
           ~op_deadline_ns:(deadline_ms * 1_000_000) ~nodes ~clients ~ops ~seed ());
    ]

(* --- springfs scale --- *)

let run_scale clients budget seed dir_heavy sync_heavy stack check =
  List.iter (at_least 1) [ ("--clients", clients); ("--budget", budget) ];
  if sync_heavy && (dir_heavy || stack = `Deep) then (
    Format.eprintf
      "springfs: --sync-heavy runs the base stack and op mix (drop \
       --dir-heavy / --stack deep)@.";
    exit 2);
  let open Sp_benchlib.Scale in
  let r =
    run_row ~budget ~dir_heavy ~deep:(stack = `Deep) ~sync_heavy ~clients ~seed
      ()
  in
  let label =
    if sync_heavy then "the journaled two-domain stack (sync-heavy mix)"
    else
      match stack with
      | `Deep -> "the deep stack (compression over a mirror of two bases)"
      | `Base -> "the shared two-domain stack"
  in
  print ~label Format.std_formatter [ r ];
  if sync_heavy then
    Format.printf
      "SCALE clients=%d ops=%d elapsed_ns=%d p50_ns=%d p99_ns=%d p999_ns=%d \
       queue_ns=%d switches=%d syncs=%d commits=%d absorbed=%d sync_p99_ns=%d@."
      r.sc_clients r.sc_ops r.sc_elapsed_ns r.sc_p50_ns r.sc_p99_ns
      r.sc_p999_ns r.sc_queue_ns r.sc_switches r.sc_syncs r.sc_commits
      r.sc_absorbed r.sc_sync_p99_ns
  else
    Format.printf
      "SCALE clients=%d ops=%d elapsed_ns=%d p50_ns=%d p99_ns=%d p999_ns=%d \
       queue_ns=%d switches=%d@."
      r.sc_clients r.sc_ops r.sc_elapsed_ns r.sc_p50_ns r.sc_p99_ns
      r.sc_p999_ns r.sc_queue_ns r.sc_switches;
  if not check then 0
  else if r.sc_queue_ns <= 0 then begin
    Format.eprintf
      "springfs: --check: no queue time recorded — contention never formed@.";
    1
  end
  else if r.sc_p50_ns <= 0 || r.sc_p99_ns <= r.sc_p50_ns then begin
    Format.eprintf
      "springfs: --check: expected p99 (%dns) above p50 (%dns) under \
       contention@."
      r.sc_p99_ns r.sc_p50_ns;
    1
  end
  else if sync_heavy && clients > 1 && r.sc_absorbed <= 0 then begin
    (* The sync-heavy smoke exists to prove group commit engages: with
       concurrent clients some syncs must ride another caller's commit. *)
    Format.eprintf
      "springfs: --check: sync-heavy run absorbed no syncs (commits=%d \
       syncs=%d) — group commit never engaged@."
      r.sc_commits r.sc_syncs;
    1
  end
  else 0

(* --- springfs versions --- *)

let run_versions () =
  let _world, _alpha, sfs = setup_base () in
  let ver = Sp_versionfs.Versionfs.make ~name:"ver0" () in
  S.stack_on ver sfs;
  let f = S.create ver (path "report") in
  List.iteri
    (fun i text ->
      ignore (F.write f ~pos:0 (Bytes.of_string text));
      F.truncate f (String.length text);
      F.sync f;
      let v = Sp_versionfs.Versionfs.snapshot ver (path "report") in
      Format.printf "snapshot %d taken after revision %d@." v (i + 1))
    [ "draft"; "draft, reviewed"; "final" ];
  Format.printf "versions: [%s]@."
    (String.concat "; "
       (List.map string_of_int (Sp_versionfs.Versionfs.versions ver (path "report"))));
  let v1 = Sp_versionfs.Versionfs.open_version ver (path "report") 1 in
  Format.printf "version 1 content: %s@." (Bytes.to_string (F.read_all v1));
  Sp_versionfs.Versionfs.restore ver (path "report") 1;
  Format.printf "after restore, current: %s@." (Bytes.to_string (F.read_all f));
  0

(* --- springfs ls --- *)

(* With [--files N] this is the namespace-at-scale scenario: build one
   directory of N files (the flat format upgrades itself to the hash
   index past 128 entries) and stream it back with cursor readdir.
   Periodic sync + drop_caches keeps the live heap bounded by the cache
   sizes, not the file count; the traversal never materialises the
   listing.  The volume skips checksums (pure namespace exercise) and
   sizes its inode table to the file count. *)
let run_ls layers dir files =
  let _world, alpha, sfs =
    if files = 0 then setup_base ()
    else begin
      let world = N.World.create () in
      let alpha = N.World.add_node world "alpha" in
      let disk = N.add_disk alpha ~name:"disk0" ~blocks:((files / 8) + 131072) in
      Sp_sfs.Disk_layer.mkfs ~checksums:false ~inodes:(files + 64) disk;
      (world, alpha, N.mount_sfs alpha ~disk_name:"disk0" ~name:"sfs0")
    end
  in
  let spec = List.mapi (fun i t -> (t, Printf.sprintf "%s%d" t i)) layers in
  let top = N.build_stack alpha ~base:sfs spec in
  if files = 0 then begin
    S.mkdir top (path "example");
    ignore (S.create top (path "example/a"));
    ignore (S.create top (path "example/b"));
    let target = if dir = "" then "example" else dir in
    let names =
      List.sort String.compare
        (S.fold_dir top (path target) (fun acc n -> n :: acc) [])
    in
    Format.printf "%s: [%s]@." target (String.concat "; " names);
    0
  end
  else begin
    let dirname = if dir = "" then "big" else dir in
    S.mkdir top (path dirname);
    let t0 = Sp_sim.Simclock.now () in
    for i = 0 to files - 1 do
      ignore (S.create top (path (Printf.sprintf "%s/f%07d" dirname i)));
      if (i + 1) mod 65536 = 0 then begin
        S.sync top;
        S.drop_caches top
      end
    done;
    S.sync top;
    S.drop_caches top;
    let t_build = Sp_sim.Simclock.now () - t0 in
    let t1 = Sp_sim.Simclock.now () in
    let count = S.fold_dir top (path dirname) (fun n _ -> n + 1) 0 in
    let t_list = Sp_sim.Simclock.now () - t1 in
    let probe = Printf.sprintf "%s/f%07d" dirname (files - 1) in
    let t2 = Sp_sim.Simclock.now () in
    ignore (S.open_file top (path probe));
    let t_open = Sp_sim.Simclock.now () - t2 in
    Gc.compact ();
    let live_mb = Gc.((stat ()).live_words) * 8 / 1048576 in
    (* Hold the stack until the heap is read: the figure is the live
       stack's, not the remainder once it is collected. *)
    ignore (Sys.opaque_identity top);
    Format.printf "%s: built %d files (sim %a)@." dirname files
      Sp_sim.Simclock.pp_duration t_build;
    Format.printf "cursor readdir streamed %d entries (sim %a)@." count
      Sp_sim.Simclock.pp_duration t_list;
    Format.printf "open %s: sim %a@." probe Sp_sim.Simclock.pp_duration t_open;
    Format.printf "live heap after traversal: %d MB@." live_mb;
    if count <> files then begin
      Format.eprintf "springfs: expected %d entries, readdir returned %d@."
        files count;
      1
    end
    else 0
  end

(* --- springfs profile --- *)

(* Each table of [profile tables] runs under its own trace root, opened
   after the table's world reset: a reset inside an open root would
   restart the clock and the counters under it.  With [--trace-out], each
   table's trace goes to its own file, the table name put before FILE's
   extension. *)
let run_profile scenario layers ops size trace_out capacity =
  at_least 2 ("--capacity", capacity);
  let layers = if layers = [] then [ "coherency"; "compfs" ] else layers in
  let profile name out run =
    let (), trace = Sp_trace.with_tracing ~capacity ~root:("springfs " ^ name) run in
    Format.printf "@.per-layer profile (%s, %d spans, %a simulated):@.%a@." name
      (List.length trace.Sp_trace.tr_spans)
      Sp_sim.Simclock.pp_duration trace.Sp_trace.tr_total_ns Sp_trace.pp_profile
      trace;
    match out with
    | Some file -> (
        try
          Sp_trace.write_chrome_json file trace;
          Format.printf
            "chrome trace written to %s (open in chrome://tracing or Perfetto)@."
            file
        with Sys_error msg ->
          Format.eprintf "springfs: cannot write trace: %s@." msg;
          exit 2)
    | None -> ()
  in
  (match scenario with
  | `Demo -> profile "demo" trace_out (fun () -> ignore (run_demo ()))
  | `Stack ->
      profile "stack" trace_out (fun () -> ignore (run_stack layers ops size false))
  | `Tables ->
      let table_file name file =
        Filename.remove_extension file ^ "." ^ name ^ Filename.extension file
      in
      Sp_benchlib.Tables.iter [] (fun name print ->
          profile ("tables " ^ name)
            (Option.map (table_file name) trace_out)
            (fun () -> print Format.std_formatter)));
  0

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let layers_arg =
  let doc =
    "Comma-separated layer types to stack on the base SFS, bottom first \
     (available: coherency, compfs, cryptfs, attrfs, versionfs, dfs;\n\
     mirrorfs and unionfs need several underlays and are driven from code)."
  in
  Arg.(value & opt (list string) [] & info [ "layers"; "l" ] ~docv:"TYPES" ~doc)

let stack_cmd =
  let ops =
    Arg.(value & opt int 100 & info [ "ops" ] ~docv:"N" ~doc:"Operations to run.")
  in
  let size =
    Arg.(value & opt int 4096 & info [ "size" ] ~docv:"BYTES" ~doc:"I/O size.")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Progress output.") in
  let doc = "build a file-system stack and run a measured workload" in
  Cmd.v (Cmd.info "stack" ~doc)
    Term.(const run_stack $ layers_arg $ ops $ size $ verbose)

let tables_cmd =
  let names = Sp_benchlib.Tables.names in
  let which =
    Arg.(
      value
      & pos_all (enum (List.map (fun n -> (n, n)) names)) []
      & info [] ~docv:"TABLE"
          ~doc:
            ("Tables to print, in this order: " ^ String.concat ", " names
           ^ " (default all, as bench/main.exe prints them)."))
  in
  let doc = "regenerate the paper's evaluation tables (simulated)" in
  Cmd.v (Cmd.info "tables" ~doc) Term.(const run_tables $ which)

let demo_cmd =
  let doc = "run a small end-to-end demo (encryption + compression + DFS)" in
  Cmd.v (Cmd.info "demo" ~doc) Term.(const run_demo $ const ())

let ls_cmd =
  let dir =
    Arg.(value & opt string "" & info [ "dir" ] ~docv:"PATH" ~doc:"Directory to list.")
  in
  let files =
    Arg.(
      value & opt int 0
      & info [ "files" ] ~docv:"N"
          ~doc:
            "Build a directory of $(docv) files and stream it back with \
             cursor readdir (namespace-at-scale scenario; 0 runs the tiny \
             demo listing).")
  in
  let doc = "build a stack and list a directory through it" in
  Cmd.v (Cmd.info "ls" ~doc) Term.(const run_ls $ layers_arg $ dir $ files)

let fsck_cmd =
  let ops =
    Arg.(value & opt int 50 & info [ "ops" ] ~docv:"N" ~doc:"Workload size.")
  in
  let journal =
    Arg.(value & flag & info [ "journal" ] ~doc:"Format the volume with a write-ahead journal.")
  in
  let crash_at =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-at-write" ] ~docv:"N"
          ~doc:"Inject a fail-stop crash at the N-th device write of the workload.")
  in
  let no_recover =
    Arg.(
      value & flag
      & info [ "no-recover" ] ~doc:"Skip journal replay before checking (show raw crash damage).")
  in
  let verify_checksums =
    Arg.(
      value & flag
      & info [ "verify-checksums" ]
          ~doc:"Also hash every in-use block and compare against the checksum \
                region (reported as checksum=N in the verdict line).")
  in
  let doc =
    "run a workload, fsck the volume, and print a machine-readable verdict \
     (exit 1 on inconsistencies)"
  in
  Cmd.v (Cmd.info "fsck" ~doc)
    Term.(const run_fsck $ ops $ journal $ crash_at $ no_recover $ verify_checksums)

(* The sweep subcommands' options. *)
let int_opt name default docv doc =
  Arg.(value & opt int default & info [ name ] ~docv ~doc)

let flag_opt name doc = Arg.(value & flag & info [ name ] ~doc)

let deadline_opt doc =
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let crash_cmd =
  let ops = int_opt "ops" 40 "N" "Workload operations per run." in
  let seed = int_opt "seed" 7 "SEED" "Deterministic workload/fault seed." in
  let stride =
    int_opt "stride" 1 "K" "Crash at every K-th device write (default every write)."
  in
  let clients =
    int_opt "clients" 1 "C"
      "Run the workload as C concurrently scheduled clients ($(docv) \
       operations each); recovery is verified against per-file version \
       histories."
  in
  let sync_heavy =
    flag_opt "sync-heavy"
      "Sync every 2 ops instead of 5, so crash points land inside commit \
       (and, with --clients, group-commit leader/follower) windows."
  in
  let no_journal = flag_opt "no-journal" "Format without a journal (expect damage)." in
  let no_checksums =
    flag_opt "no-checksums"
      "Format without the per-block checksum region (damage the structural \
       fsck cannot see then goes undetected)."
  in
  let torn = flag_opt "torn" "Make the crashing write a torn (partial) write." in
  let expect_inconsistent =
    flag_opt "expect-inconsistent"
      "Invert the verdict: exit 0 only if the sweep finds at least one lost \
       or corrupt state (for exercising the injector without a journal)."
  in
  let doc =
    "sweep fail-stop crashes over every device write of a workload and verify \
     recovery (journal on: every synced write must survive and fsck must be clean)"
  in
  Cmd.v (Cmd.info "crash" ~doc)
    Term.(
      const run_crash $ ops $ seed $ stride $ clients $ sync_heavy $ no_journal
      $ no_checksums $ torn $ expect_inconsistent)

let scrub_cmd =
  let ops = int_opt "ops" 14 "N" "Workload operations per run." in
  let seed = int_opt "seed" 7 "SEED" "Deterministic workload/fault seed." in
  let stride =
    int_opt "stride" 1 "K" "Inject at every K-th device I/O (default every one)."
  in
  let clients =
    int_opt "clients" 1 "C"
      "Run the workload as C concurrently scheduled clients ($(docv) \
       operations each)."
  in
  let no_checksums =
    flag_opt "no-checksums"
      "Format without the per-block checksum region (bit rot in file data is \
       then served silently)."
  in
  let mirror =
    flag_opt "mirror"
      "Run the workload through a mirror of two volumes and corrupt the \
       primary twin (expect self-healing repairs)."
  in
  let expect_undetected =
    flag_opt "expect-undetected"
      "Invert the verdict: exit 0 only if the sweep served corrupt bytes \
       silently at least once (the checksums-off control)."
  in
  let doc =
    "sweep silent-corruption faults (bit rot, misdirected writes, lost writes) \
     over every device I/O of a workload and verify each one is detected, \
     repaired, or absorbed — never silently served"
  in
  Cmd.v (Cmd.info "scrub" ~doc)
    Term.(
      const run_scrub $ ops $ seed $ stride $ clients $ no_checksums $ mirror
      $ expect_undetected)

let failover_cmd =
  let ops = int_opt "ops" 40 "N" "Workload operations per run." in
  let seed = int_opt "seed" 7 "SEED" "Deterministic workload seed." in
  let stride = int_opt "stride" 1 "K" "Kill at every K-th op boundary (default every op)." in
  let clients =
    int_opt "clients" 1 "C"
      "Run the workload as C concurrent scheduler clients; the kill lands at \
       a global op boundary while the others keep calling through Sp_avail \
       deadlines and retries."
  in
  let deadline_ms =
    deadline_opt
      "Per-operation deadline (virtual milliseconds) enforced in concurrent \
       mode; an overrun fails the point.  Defaults to max(1000, 100 x \
       clients), since queueing makes tail latency scale with the client \
       count."
  in
  let no_supervisor =
    flag_opt "no-supervisor"
      "Run the same kills against an unsupervised stack (expect unavailable)."
  in
  let expect_unavailable =
    flag_opt "expect-unavailable"
      "Invert the verdict: exit 0 only if every crash point left the stack \
       unavailable (the unsupervised control)."
  in
  let doc =
    "sweep layer-domain fail-stops over every (layer, op) point of a workload \
     and verify the supervisor restarts the layer with no synced byte lost"
  in
  Cmd.v (Cmd.info "failover" ~doc)
    Term.(
      const run_failover $ ops $ seed $ stride $ clients $ deadline_ms
      $ no_supervisor $ expect_unavailable)

let dfs_sweep_cmd =
  let nodes = int_opt "nodes" 3 "N" "Shard server nodes in the cluster." in
  let clients =
    int_opt "clients" 4 "C" "Concurrent scheduler clients, one lease cache each."
  in
  let ops = int_opt "ops" 48 "N" "Total workload op budget per point." in
  let seed = int_opt "seed" 11 "SEED" "Deterministic workload seed." in
  let stride =
    int_opt "stride" 7 "K" "Fault at every K-th global op boundary (1 = all of them)."
  in
  let partition =
    flag_opt "partition"
      "Instead of killing shard domains, cut the network between a rotating \
       victim client and the hot shard: warm lease-held service must continue \
       until the lease expires, then fail loudly, never stalely."
  in
  let no_leases =
    flag_opt "no-leases"
      "Run leaseless (no client caching): the control arm.  With --partition, \
       every point is expected unavailable."
  in
  let deadline_ms =
    deadline_opt
      "Per-operation deadline (virtual milliseconds).  Defaults to max(3000, \
       1000 x clients)."
  in
  let expect_unavailable =
    flag_opt "expect-unavailable"
      "Invert the verdict: exit 0 only if every point ended unavailable (the \
       leaseless partition control)."
  in
  let doc =
    "sweep shard-node kills (or client partitions) over every strided op \
     boundary of a concurrent workload against the sharded DFS and verify \
     durability, lease safety and bounded recovery on every shard"
  in
  Cmd.v (Cmd.info "dfs-sweep" ~doc)
    Term.(
      const run_dfs_sweep $ nodes $ clients $ ops $ seed $ stride $ partition
      $ no_leases $ deadline_ms $ expect_unavailable)

let scale_cmd =
  let clients =
    Arg.(
      value & opt int 64
      & info [ "clients" ] ~docv:"C"
          ~doc:"Concurrent clients, each a scheduler task on the shared stack.")
  in
  let budget =
    Arg.(
      value & opt int 10000
      & info [ "budget" ] ~docv:"N"
          ~doc:"Total operation budget for the row (each client runs \
                budget/clients ops, at least one).")
  in
  let seed =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic workload seed.")
  in
  let dir_heavy =
    Arg.(
      value & flag
      & info [ "dir-heavy" ]
          ~doc:"Swap the op mix for a namespace-heavy one: opens by compound \
                name, cursor readdir batches, and create/remove churn \
                against a shared indexed directory.")
  in
  let sync_heavy =
    Arg.(
      value & flag
      & info [ "sync-heavy" ]
          ~doc:"Swap the op mix for a durability-heavy one on a journaled \
                base: every op writes 1KB and every 4th op syncs, so \
                concurrent syncs batch into journal group commits (reported \
                as syncs/commits/absorbed in the SCALE line).")
  in
  let stack =
    let stacks = [ ("base", `Base); ("deep", `Deep) ] in
    Arg.(
      value
      & opt (enum stacks) `Base
      & info [ "stack" ] ~docv:"STACK"
          ~doc:"Stack to drive: base (the two-domain SFS) or deep \
                (compression over a mirror of two two-domain bases).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Exit 1 unless contention actually formed: queue time recorded \
                and p99 strictly above p50 (with --sync-heavy and clients > \
                1, also at least one absorbed sync).")
  in
  let doc =
    "run N concurrent clients over one shared stack and report throughput and \
     tail latency (p50/p99/p999) under the 1993 cost model"
  in
  Cmd.v (Cmd.info "scale" ~doc)
    Term.(
      const run_scale $ clients $ budget $ seed $ dir_heavy $ sync_heavy
      $ stack $ check)

let versions_cmd =
  let doc = "demonstrate the file-versioning layer" in
  Cmd.v (Cmd.info "versions" ~doc) Term.(const run_versions $ const ())

let profile_cmd =
  let scenario =
    let scenarios = [ ("demo", `Demo); ("stack", `Stack); ("tables", `Tables) ] in
    Arg.(
      required
      & pos 0 (some (enum scenarios)) None
      & info [] ~docv:"SCENARIO" ~doc:"Scenario to profile: demo, stack or tables.")
  in
  let ops =
    Arg.(value & opt int 100 & info [ "ops" ] ~docv:"N" ~doc:"Operations (stack only).")
  in
  let size =
    Arg.(value & opt int 4096 & info [ "size" ] ~docv:"BYTES" ~doc:"I/O size (stack only).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Also write a Chrome trace-event JSON file (chrome://tracing, \
             Perfetto).  For tables, one file per table, named FILE with the \
             table name before its extension.")
  in
  let capacity =
    Arg.(
      value & opt int 262144
      & info [ "capacity" ] ~docv:"SPANS"
          ~doc:
            "Span ring-buffer capacity (per table, for tables); oldest spans \
             drop beyond this.")
  in
  let doc =
    "run a scenario under span tracing and print the per-layer time attribution"
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run_profile $ scenario $ layers_arg $ ops $ size $ trace_out $ capacity)

let main =
  let doc = "Spring extensible file systems (SOSP '93) — simulation driver" in
  Cmd.group (Cmd.info "springfs" ~version:"1.0.0" ~doc)
    [
      stack_cmd; tables_cmd; demo_cmd; ls_cmd; fsck_cmd; crash_cmd; scrub_cmd;
      failover_cmd; dfs_sweep_cmd; scale_cmd;
      versions_cmd; profile_cmd;
    ]

(* A command line cmdliner rejects is a usage error: exit 2, like the
   subcommands' own argument checks. *)
let () =
  exit
    (match Cmd.eval' main with
    | code when code = Cmd.Exit.cli_error -> 2
    | code -> code)
