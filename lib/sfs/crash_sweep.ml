module Disk = Sp_blockdev.Disk
module Files = Sp_sweep.Files

type outcome = Survived | Lost of string | Corrupt of string | Detected of string

let disk_blocks = 1024

let label ~journal ~seed =
  Printf.sprintf "crashsweep-%c%d" (if journal then 'j' else 'r') seed

(* The serial oracle: the remounted volume must equal one of the two
   consistent cuts a write-ahead journal guarantees. *)
let matches_cuts m fs2 =
  let cuts =
    (match Files.in_flight m with Some c -> [ ("in-flight sync", c) ] | None -> [])
    @ [ ("last sync", Files.synced m) ]
  in
  if List.exists (fun (_, c) -> Files.mismatch fs2 c = None) cuts then None
  else
    let which, c = List.hd cuts in
    Some (Printf.sprintf "vs %s: %s" which (Option.get (Files.mismatch fs2 c)))

(* With [clients > 1] a crash can land between two clients' syncs, so
   there is no one cut the whole volume must equal.  Each file must
   instead hold some version at least as new as the one current when the
   latest completed sync started (any client's sync commits the whole
   volume): older means a synced write was lost, no version at all means
   corruption. *)
let matches_versions m fs2 =
  let on_disk = Files.listing fs2 in
  List.find_map
    (fun name ->
      let got = if List.mem name on_disk then Some (Files.read fs2 name) else None in
      let allowed = Files.since_sync m name in
      if List.exists (Option.equal Bytes.equal got) allowed then None
      else
        Some
          (Printf.sprintf "%s: %s matches none of the %d version(s) since the last sync"
             name
             (match got with
             | None -> "absent"
             | Some g -> Printf.sprintf "%d bytes" (Bytes.length g))
             (List.length allowed)))
    (List.sort_uniq String.compare (on_disk @ Files.names m))

(* A fresh volume with the workload ready to run and the oracle that
   judges the recovered volume against the workload's own record.
   [sync_heavy] syncs every 2 ops instead of 5, so crash points land
   inside commit windows far more often — with concurrent clients that
   means inside the leader/follower group-commit protocol. *)
let build ~checksums ~clients ~sync_heavy ~journal ~ops ~seed =
  if clients < 1 then invalid_arg "Crash_sweep: clients must be >= 1";
  let sync_every = if sync_heavy then 2 else 5 in
  let lbl = label ~journal ~seed in
  let blocks = if clients > 1 then 2 * disk_blocks else disk_blocks in
  let disk = Disk.create ~label:lbl ~blocks () in
  Disk_layer.mkfs ~journal ~checksums disk;
  let m = Files.create (Disk_layer.mount ~name:lbl disk) in
  ( disk,
    (fun () -> Files.run m ~clients ~reads:false ~sync_every ~ops ~seed),
    if clients > 1 then matches_versions m else matches_cuts m )

let workload_writes ?(checksums = true) ?(clients = 1) ?(sync_heavy = false)
    ~journal ~ops ~seed () =
  let disk, workload, _ = build ~checksums ~clients ~sync_heavy ~journal ~ops ~seed in
  let before = (Disk.stats disk).writes in
  workload ();
  (Disk.stats disk).writes - before

let run_point ?(torn = false) ?(checksums = true) ?(clients = 1)
    ?(sync_heavy = false) ~journal ~ops ~seed ~crash_at () =
  let disk, workload, oracle =
    build ~checksums ~clients ~sync_heavy ~journal ~ops ~seed
  in
  let plan =
    Sp_fault.plan ~seed:(seed + crash_at)
      [
        Sp_fault.rule ~point:"disk.write"
          ~label:(label ~journal ~seed)
          ~after:(crash_at - 1) ~count:1
          (if torn then Sp_fault.Torn_write_crash else Sp_fault.Fail_stop);
      ]
  in
  (match Sp_fault.with_plan plan workload with
  | () -> ()
  | exception Sp_fault.Crash _ -> ());
  ignore (Disk_layer.recover disk);
  let structural, mismatches =
    List.partition
      (function Fsck.Checksum_mismatch _ -> false | _ -> true)
      (Fsck.check ~verify_checksums:checksums disk)
  in
  match (Fsck.summary structural, Fsck.summary mismatches) with
  | Some msg, _ -> Corrupt msg
  | None, Some msg ->
      (* The graph still parses, but checksums prove blocks hold the
         wrong bytes — the positive detection a torn unjournaled write
         gets with checksums on. *)
      Detected msg
  | None, None -> (
      (* Checksum errors during remount or reading back (metadata the
         structural pass could not attribute) also count as positive
         detection, never as silently-served data. *)
      match oracle (Disk_layer.mount ~name:(label ~journal ~seed ^ "-re") disk) with
      | None -> Survived
      | Some msg -> Lost msg
      | exception Sp_core.Fserr.Checksum_error msg -> Detected msg)

let scenario ?(torn = false) ?(checksums = true) ?(clients = 1)
    ?(sync_heavy = false) ~journal ~ops ~seed () =
  let writes = workload_writes ~checksums ~clients ~sync_heavy ~journal ~ops ~seed () in
  let flag name on = if on then [ (name, "on") ] else [] in
  {
    Sp_sweep.label = "CRASH-SWEEP";
    params =
      [ ("journal", Sp_sweep.on_off journal); ("checksums", Sp_sweep.on_off checksums) ]
      @ flag "torn" torn @ flag "sync-heavy" sync_heavy
      @ if clients > 1 then [ ("clients", string_of_int clients) ] else [];
    trailer =
      [ ("seed", string_of_int seed); ("ops", string_of_int ops); ("io", string_of_int writes) ];
    classes = [ "survived"; "lost"; "corrupt"; "detected" ];
    failing = [ "lost"; "corrupt"; "detected" ];
    axes = [ ("write", writes) ];
    run =
      (fun p ->
        let cls, msg =
          match
            run_point ~torn ~checksums ~clients ~sync_heavy ~journal ~ops ~seed
              ~crash_at:p.Sp_sweep.at ()
          with
          | Survived -> ("survived", "")
          | Lost m -> ("lost", m)
          | Corrupt m -> ("corrupt", m)
          | Detected m -> ("detected", m)
        in
        { Sp_sweep.cls; msg; counters = [] });
  }
