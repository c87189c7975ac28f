module Disk = Sp_blockdev.Disk
module Stackable = Sp_core.Stackable
module File = Sp_core.File
module Sname = Sp_naming.Sname
module Rng = Sp_fault.Rng

type outcome = Survived | Lost of string | Corrupt of string | Detected of string

let disk_blocks = 1024
let root = Sname.of_components []
let n_files = 6
let max_pos = 12 * 1024
let max_write = 4096

(* A consistent cut the recovered volume may legally equal: the set of
   files and their exact contents at some sync boundary. *)
type snapshot = (string * bytes) list

type sim = {
  fs : Stackable.t;
  expected : (string, bytes) Hashtbl.t;  (* live contents, incl. unsynced *)
  mutable synced : snapshot;  (* as of the last completed sync *)
  mutable pending : snapshot option;  (* set while a sync is in flight *)
}

let snapshot tbl =
  Hashtbl.fold (fun name data acc -> (name, Bytes.copy data) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let do_sync st =
  st.pending <- Some (snapshot st.expected);
  Stackable.sync st.fs;
  st.synced <- Option.get st.pending;
  st.pending <- None

(* The workload draws every decision from [rng] in strict operation
   order and never inspects wall time or hash order, so a given seed
   always produces the identical op and device-write sequence no matter
   where (or whether) a crash rule fires. *)
let write_step st rng =
  let name = "f" ^ string_of_int (Rng.int rng n_files) in
  let path = Sname.of_components [ name ] in
  let pos = Rng.int rng max_pos in
  let len = 1 + Rng.int rng max_write in
  let base = Rng.int rng 256 in
  let data = Bytes.init len (fun i -> Char.chr ((base + i) land 0xff)) in
  let f =
    if Hashtbl.mem st.expected name then Stackable.open_file st.fs path
    else begin
      let f = Stackable.create st.fs path in
      Hashtbl.replace st.expected name Bytes.empty;
      f
    end
  in
  ignore (File.write f ~pos data);
  let old = Hashtbl.find st.expected name in
  let buf = Bytes.make (max (Bytes.length old) (pos + len)) '\000' in
  Bytes.blit old 0 buf 0 (Bytes.length old);
  Bytes.blit data 0 buf pos len;
  Hashtbl.replace st.expected name buf

let remove_step st rng =
  let name = "f" ^ string_of_int (Rng.int rng n_files) in
  if Hashtbl.mem st.expected name then begin
    Stackable.remove st.fs (Sname.of_components [ name ]);
    Hashtbl.remove st.expected name
  end

(* [sync_every]: ops between the periodic syncs. *)
let run_ops ~sync_every st rng ops =
  for i = 1 to ops do
    (match Rng.int rng 12 with
    | 10 -> remove_step st rng
    | 11 -> do_sync st
    | _ -> write_step st rng);
    if i mod sync_every = 0 then do_sync st
  done;
  do_sync st

let label ~journal ~seed =
  Printf.sprintf "crashsweep-%c%d" (if journal then 'j' else 'r') seed

(* ------------------------------------------------------------------ *)
(* Concurrent-client mode                                              *)
(* ------------------------------------------------------------------ *)

(* With [clients > 1] the workload runs as N scheduler tasks over one
   volume, each owning a disjoint set of files ("c<k>f<j>").  The
   single-snapshot verification above no longer works: a crash can land
   between two clients' syncs, so there is no one cut the whole volume
   must equal.  Instead each file keeps its full version history
   (position 0 is the implicit "absent" before creation) plus a durable
   floor — the version that was current when the latest *completed* sync
   (by any client — every commit flushes the whole volume) started.
   After recovery each surviving file must hold SOME version at or above
   its floor: below the floor means a synced write was lost, no version
   at all means corruption. *)

type version = Absent | Content of bytes

type fhist = {
  mutable rev : version list;  (* newest first; positions n..1 *)
  mutable n : int;
  mutable floor : int;  (* 0 = nothing durable yet (implicit Absent) *)
}

let files_per_client = 3

let hist_of world name =
  match Hashtbl.find_opt world name with
  | Some h -> h
  | None ->
      let h = { rev = []; n = 0; floor = 0 } in
      Hashtbl.replace world name h;
      h

let hist_current h = match h.rev with [] -> Absent | v :: _ -> v

let hist_push h v =
  h.rev <- v :: h.rev;
  h.n <- h.n + 1

(* A completed sync makes (at least) every version current at its start
   durable: the journal commit flushes the whole volume's buffered
   writes, whoever issued them. *)
let csync world fs =
  let snap = Hashtbl.fold (fun _ h acc -> (h, h.n) :: acc) world [] in
  Stackable.sync fs;
  List.iter (fun (h, idx) -> if idx > h.floor then h.floor <- idx) snap

let cwrite_step world fs rng k =
  let name = Printf.sprintf "c%df%d" k (Rng.int rng files_per_client) in
  let path = Sname.of_components [ name ] in
  let pos = Rng.int rng max_pos in
  let len = 1 + Rng.int rng max_write in
  let base = Rng.int rng 256 in
  let data = Bytes.init len (fun i -> Char.chr ((base + i) land 0xff)) in
  let h = hist_of world name in
  let old, f =
    match hist_current h with
    | Content b -> (b, Stackable.open_file fs path)
    | Absent ->
        let f = Stackable.create fs path in
        (* The empty just-created file is its own committable version:
           the create and the first write are separately-locked ops, so
           another client's sync can land between them and make the bare
           creation durable. *)
        hist_push h (Content Bytes.empty);
        (Bytes.empty, f)
  in
  ignore (File.write f ~pos data);
  let buf = Bytes.make (max (Bytes.length old) (pos + len)) '\000' in
  Bytes.blit old 0 buf 0 (Bytes.length old);
  Bytes.blit data 0 buf pos len;
  (* No suspension point between the write returning and this push: the
     history always reflects every completed write. *)
  hist_push h (Content buf)

let cremove_step world fs rng k =
  let name = Printf.sprintf "c%df%d" k (Rng.int rng files_per_client) in
  let h = hist_of world name in
  match hist_current h with
  | Absent -> ()
  | Content _ ->
      Stackable.remove fs (Sname.of_components [ name ]);
      hist_push h Absent

let run_clients ~sync_every world fs ~clients ~ops ~seed =
  let client k () =
    let rng = Rng.create (seed + ((k + 1) * 7919)) in
    for i = 1 to ops do
      (match Rng.int rng 12 with
      | 10 -> cremove_step world fs rng k
      | 11 -> csync world fs
      | _ -> cwrite_step world fs rng k);
      if i mod sync_every = 0 then csync world fs
    done;
    csync world fs
  in
  ignore (Sp_sched.run ~seed (List.init clients client))

(* Does the on-disk state of one file ([got = None] if absent) match any
   version at or above the durable floor? *)
let matches_hist h got =
  let rec go i = function
    | [] -> ( (* position 0: the implicit pre-creation Absent *)
        match got with None -> h.floor <= 0 | Some _ -> false)
    | v :: rest ->
        (i >= h.floor
        &&
        match (v, got) with
        | Absent, None -> true
        | Content b, Some g -> Bytes.equal b g
        | _ -> false)
        || go (i - 1) rest
  in
  go h.n h.rev

let matches_world world fs2 =
  let on_disk =
    List.sort String.compare
      (Stackable.fold_dir fs2 root (fun acc n -> n :: acc) [])
  in
  match
    List.find_opt (fun name -> not (Hashtbl.mem world name)) on_disk
  with
  | Some name -> Some (Printf.sprintf "unexpected file %s on disk" name)
  | None ->
      Hashtbl.fold
        (fun name h acc ->
          match acc with
          | Some _ -> acc
          | None ->
              let got =
                if List.mem name on_disk then
                  Some
                    (File.read_all
                       (Stackable.open_file fs2 (Sname.of_components [ name ])))
                else None
              in
              if matches_hist h got then None
              else
                Some
                  (Printf.sprintf
                     "%s: %s matches no version >= durable floor %d (of %d)"
                     name
                     (match got with
                     | None -> "absent"
                     | Some g -> Printf.sprintf "%d bytes" (Bytes.length g))
                     h.floor h.n))
        world None

(* [matches fs2 snap] checks the remounted volume holds exactly the
   files of [snap] with exactly their contents; returns a description of
   the first divergence, or [None] on an exact match. *)
let matches fs2 snap =
  let names =
    List.sort String.compare
      (Stackable.fold_dir fs2 root (fun acc n -> n :: acc) [])
  in
  let snap_names = List.map fst snap in
  if names <> snap_names then
    Some
      (Printf.sprintf "file set {%s} <> {%s}" (String.concat "," names)
         (String.concat "," snap_names))
  else
    List.find_map
      (fun (name, want) ->
        let f = Stackable.open_file fs2 (Sname.of_components [ name ]) in
        let got = File.read_all f in
        if Bytes.equal got want then None
        else
          Some
            (Printf.sprintf "%s: %d bytes on disk, expected %d%s" name
               (Bytes.length got) (Bytes.length want)
               (if Bytes.length got = Bytes.length want then
                  " (content differs)"
                else "")))
      snap

(* The serial oracle: the remounted volume must equal one of the two
   consistent cuts a write-ahead journal guarantees. *)
let matches_cuts st fs2 =
  let cuts =
    (match st.pending with Some s -> [ ("in-flight sync", s) ] | None -> [])
    @ [ ("last sync", st.synced) ]
  in
  if List.exists (fun (_, s) -> matches fs2 s = None) cuts then None
  else
    match cuts with
    | (which, s) :: _ ->
        Some
          (Printf.sprintf "vs %s: %s" which
             (Option.value ~default:"?" (matches fs2 s)))
    | [] -> Some "no snapshot to compare"

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
  let fs = Disk_layer.mount ~name:lbl disk in
  if clients > 1 then
    let world = Hashtbl.create 32 in
    ( disk,
      (fun () -> run_clients ~sync_every world fs ~clients ~ops ~seed),
      matches_world world )
  else
    let st = { fs; expected = Hashtbl.create 8; synced = []; pending = None } in
    (disk, (fun () -> run_ops ~sync_every st (Rng.create seed) ops), matches_cuts st)

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
