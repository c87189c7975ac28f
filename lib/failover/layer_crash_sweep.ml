(* Sibling of [Sp_sfs.Crash_sweep]: instead of crashing the machine at
   every device write, fail-stop each *layer domain* of the demo stack at
   every op boundary of a seeded workload, and check the supervised stack
   resumes serving without losing a synced byte.

   The verification model differs from the machine-crash sweep because a
   layer crash is partial: layers below the dead one keep their in-memory
   state, and VMM pages whose pager survived keep unsynced data, while
   pages bound to a dead incarnation are reconciled (dirty ones lost).
   So after the restart the durable floor is per *byte*, not per file:

   - every file of the last synced cut that was not removed since must
     still exist, and every byte of it NOT overwritten since that sync
     must read back exactly;
   - bytes written since the sync may hold the old or the new value;
   - files created (removed) since the sync may or may not exist (their
     creation may have reached the still-live base layer, or died with
     the killed layer);
   - no file may appear out of thin air.

   After checking the floor, the sweep adopts what the stack actually
   serves as the new expected state and runs the remaining ops, so the
   final exact verification also proves the restarted stack serves
   reads and writes correctly. *)

module Disk = Sp_blockdev.Disk
module Stackable = Sp_core.Stackable
module File = Sp_core.File
module Sname = Sp_naming.Sname
module Rng = Sp_fault.Rng
module DL = Sp_sfs.Disk_layer
module Live = Sp_sweep.Live

let disk_blocks = 2048
let root = Sname.of_components []
let n_files = 6
let max_pos = 12 * 1024
let max_write = 4096
let layer_names = [ "lcs.disk"; "lcs.coh"; "lcs.crypt"; "lcs.comp" ]

type snapshot = (string * bytes) list

type sim = {
  sup : Sp_supervise.t;
  fs : Stackable.t;  (* the supervised handle (or the bare top) *)
  disk : Disk.t;
  vmm : Sp_vm.Vmm.t;
  expected : (string, bytes) Hashtbl.t;
  mutable synced : snapshot;
  (* Since-sync tracking, for the per-byte durability floor. *)
  dirty : (string, (int * int) list) Hashtbl.t;  (* written (pos, len) *)
  created : (string, unit) Hashtbl.t;
  removed : (string, unit) Hashtbl.t;
}

let snapshot tbl =
  Hashtbl.fold (fun name data acc -> (name, Bytes.copy data) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let clear_since_sync st =
  Hashtbl.reset st.dirty;
  Hashtbl.reset st.created;
  Hashtbl.reset st.removed

let do_sync st =
  Stackable.sync st.fs;
  st.synced <- snapshot st.expected;
  clear_since_sync st

(* Workload identical in shape (and rng draw order) to Crash_sweep's. *)
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
      Hashtbl.replace st.created name ();
      Hashtbl.remove st.removed name;
      f
    end
  in
  ignore (File.write f ~pos data);
  let old = Hashtbl.find st.expected name in
  let buf = Bytes.make (max (Bytes.length old) (pos + len)) '\000' in
  Bytes.blit old 0 buf 0 (Bytes.length old);
  Bytes.blit data 0 buf pos len;
  Hashtbl.replace st.expected name buf;
  let prev = Option.value ~default:[] (Hashtbl.find_opt st.dirty name) in
  Hashtbl.replace st.dirty name ((pos, len) :: prev)

let remove_step st rng =
  let name = "f" ^ string_of_int (Rng.int rng n_files) in
  if Hashtbl.mem st.expected name then begin
    Stackable.remove st.fs (Sname.of_components [ name ]);
    Hashtbl.remove st.expected name;
    Hashtbl.remove st.dirty name;
    Hashtbl.remove st.created name;
    Hashtbl.replace st.removed name ()
  end

let step st rng i =
  (match Rng.int rng 12 with
  | 10 -> remove_step st rng
  | 11 -> do_sync st
  | _ -> write_step st rng);
  if i mod 5 = 0 then do_sync st

(* ------------------------------------------------------------------ *)
(* Stack construction                                                  *)
(* ------------------------------------------------------------------ *)

let build_sim ?(clients = 1) ~supervised () =
  (* The concurrent mode keeps one private file per client (plus its
     compfs container growth), so the volume must scale with the client
     count; the single-client geometry stays exactly as before. *)
  let blocks =
    if clients <= 1 then disk_blocks else max disk_blocks ((clients * 8) + 512)
  in
  let disk = Disk.create ~label:"lcs.dev" ~blocks () in
  if clients <= 1 then DL.mkfs ~journal:true disk
  else DL.mkfs ~journal:true ~inodes:(clients + 64) disk;
  let vmm = Sp_vm.Vmm.create ~node:"local" "lcs" in
  let levels =
    [
      Sp_supervise.level ~name:"lcs.disk" (fun ~lower:_ ->
          DL.mount ~name:"lcs.disk" disk);
      Sp_supervise.level ~name:"lcs.coh" (fun ~lower ->
          let fs = Sp_coherency.Coherency_layer.make ~vmm ~name:"lcs.coh" () in
          Stackable.stack_on fs (Option.get lower);
          fs);
      Sp_supervise.level ~name:"lcs.crypt" (fun ~lower ->
          let fs =
            Sp_cryptfs.Cryptfs.make ~vmm ~name:"lcs.crypt" ~key:"sweep-key" ()
          in
          Stackable.stack_on fs (Option.get lower);
          fs);
      Sp_supervise.level ~name:"lcs.comp" (fun ~lower ->
          let fs = Sp_compfs.Compfs.make ~vmm ~name:"lcs.comp" () in
          Stackable.stack_on fs (Option.get lower);
          fs);
    ]
  in
  let sup = Sp_supervise.supervise ~name:"lcs" levels in
  let fs = if supervised then Sp_supervise.handle sup else Sp_supervise.top sup in
  if not supervised then Sp_supervise.unsupervise sup;
  {
    sup;
    fs;
    disk;
    vmm;
    expected = Hashtbl.create 8;
    synced = [];
    dirty = Hashtbl.create 8;
    created = Hashtbl.create 8;
    removed = Hashtbl.create 8;
  }

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)
(* ------------------------------------------------------------------ *)

(* A container whose header died with the crashed layer before ever
   reaching a sync reads back as garbage, and the stack rejects it
   ([Io_error]) rather than serve fabricated bytes.  For a file outside
   the synced cut that loss is permitted — the application's recovery is
   to remove the husk and move on.  A *synced* file turning unreadable is
   real damage. *)
let scavenge st =
  let damaged = ref None in
  List.iter
    (fun name ->
      let path = Sname.of_components [ name ] in
      match ignore (File.read_all (Stackable.open_file st.fs path)) with
      | () -> ()
      | exception Sp_core.Fserr.Io_error msg ->
          if List.mem_assoc name st.synced then begin
            if !damaged = None then
              damaged :=
                Some
                  (Printf.sprintf "synced file %s unreadable after restart: %s"
                     name msg)
          end
          else begin
            Stackable.remove st.fs path;
            Hashtbl.remove st.expected name;
            Hashtbl.remove st.dirty name;
            Hashtbl.remove st.created name;
            Hashtbl.replace st.removed name ()
          end)
    (* Snapshot the listing before the loop: the body removes entries,
       and a readdir cursor is only weakly consistent under mutation. *)
    (List.sort String.compare
       (Stackable.fold_dir st.fs root (fun acc n -> n :: acc) []));
  !damaged

let read_back st =
  let names =
    List.sort String.compare
      (Stackable.fold_dir st.fs root (fun acc n -> n :: acc) [])
  in
  List.map
    (fun name ->
      (name, File.read_all (Stackable.open_file st.fs (Sname.of_components [ name ]))))
    names

let interval_covers intervals j =
  List.exists (fun (pos, len) -> j >= pos && j < pos + len) intervals

(* The per-byte durability floor described at the top of the file. *)
let check_floor st actual =
  let problem = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !problem = None then problem := Some m) fmt in
  List.iter
    (fun (name, want) ->
      if not (Hashtbl.mem st.removed name) then
        match List.assoc_opt name actual with
        | None -> fail "synced file %s vanished" name
        | Some got ->
            if Bytes.length got < Bytes.length want then
              fail "synced file %s shrank: %d < %d bytes" name
                (Bytes.length got) (Bytes.length want)
            else
              let dirty =
                Option.value ~default:[] (Hashtbl.find_opt st.dirty name)
              in
              let n = Bytes.length want in
              let j = ref 0 in
              while !j < n && !problem = None do
                if
                  (not (interval_covers dirty !j))
                  && Bytes.get got !j <> Bytes.get want !j
                then
                  fail "synced byte %s[%d] lost: %C <> %C" name !j
                    (Bytes.get got !j) (Bytes.get want !j);
                incr j
              done)
    st.synced;
  List.iter
    (fun (name, _) ->
      let was_synced = List.mem_assoc name st.synced in
      if (not was_synced) && not (Hashtbl.mem st.created name) then
        fail "unexpected file %s appeared" name)
    actual;
  !problem

(* Adopt what the stack actually serves as the new model state (it was
   just synced, so it is also the new durable cut). *)
let adopt st actual =
  Hashtbl.reset st.expected;
  List.iter (fun (name, data) -> Hashtbl.replace st.expected name (Bytes.copy data)) actual;
  st.synced <- snapshot st.expected;
  clear_since_sync st

let exact_match st actual =
  let want = snapshot st.expected in
  let names l = List.map fst l in
  if names actual <> names want then
    Some
      (Printf.sprintf "file set {%s} <> {%s}"
         (String.concat "," (names actual))
         (String.concat "," (names want)))
  else
    List.find_map
      (fun ((name, got), (_, w)) ->
        if Bytes.equal got w then None
        else
          Some
            (Printf.sprintf "%s: %d bytes served, expected %d%s" name
               (Bytes.length got) (Bytes.length w)
               (if Bytes.length got = Bytes.length w then " (content differs)"
                else "")))
      (List.combine actual want)

(* ------------------------------------------------------------------ *)
(* One crash point                                                     *)
(* ------------------------------------------------------------------ *)

(* The stack's own per-point counters, ahead of the live-client ones. *)
let stack_counters st live =
  let clean, lost = Sp_vm.Vmm.reconciled st.vmm in
  ("restarts", Sp_sweep.Sum (Sp_supervise.restarts st.sup))
  :: ("reconciled", Sp_sweep.Pair (clean, lost))
  :: live

let run_point ~supervised ~layer ~ops ~seed ~kill_at =
  let st = build_sim ~supervised () in
  let rng = Rng.create seed in
  let finish () = Sp_supervise.unsupervise st.sup in
  let outcome =
    Fun.protect ~finally:finish @@ fun () ->
    match
    let restarts0 = Sp_supervise.restarts st.sup in
    for i = 1 to kill_at - 1 do
      step st rng i
    done;
    (* Fail-stop the layer's current serving domain at the op boundary. *)
    Sp_obj.Sdomain.kill (Sp_supervise.current st.sup layer).Stackable.sfs_domain;
    (* Recovery: the next operation through the supervised handle trips
       [Dead_domain] and triggers the restart; sync makes the recovered
       state durable before we inspect it. *)
    Stackable.sync st.fs;
    let floor =
      match scavenge st with
      | Some _ as damaged -> damaged
      | None -> check_floor st (read_back st)
    in
    (match floor with
    | Some msg -> Error (Live.Lost msg)
    | None ->
        adopt st (read_back st);
        for i = kill_at to ops do
          step st rng i
        done;
        do_sync st;
        if supervised && Sp_supervise.restarts st.sup = restarts0 then
          Error (Live.Corrupt (layer ^ ": supervisor never restarted anything"))
        else Ok ())
    with
    | Error o -> o
    | exception Sp_core.Fserr.Dead_domain who -> Live.Unavailable who
    | exception Sp_supervise.Give_up msg -> Live.Unavailable msg
    | Ok () -> (
        match Sp_sfs.Fsck.summary (Sp_sfs.Fsck.check st.disk) with
        | Some problem -> Live.Corrupt problem
        | None -> (
            match exact_match st (read_back st) with
            | Some msg -> Live.Lost msg
            | None -> Live.Served))
  in
  (outcome, stack_counters st Live.no_counters)

(* ------------------------------------------------------------------ *)
(* Concurrent crash points                                             *)
(* ------------------------------------------------------------------ *)

(* With [clients > 1] the workload runs as N [Sp_sched] tasks that keep
   calling through the supervised handle while the kill lands at a swept
   global op boundary.  Every op goes through [Sp_avail.call] with a
   deadline, so the availability contract is enforced live: ops either
   complete (possibly retried through the restart window), or fail
   loudly within the deadline — never hang, never silently corrupt.

   Verification model: each client owns one file (created and synced in
   setup) and only ever writes and syncs — writes to a fixed position
   with fixed data are idempotent under availability retry, which
   re-executes the closure.  A global event counter orders op starts and
   completions; the durable cut is the highest event watermark of a sync
   that completed before the kill.  After the run (plus a final sync) a
   byte is pinned iff its newest covering write either completed before
   the cut (durability floor) or started after recovery completed — the
   first post-restart success.  The vulnerable window runs from the kill
   to that point, not just to the kill instant: an op issued after the
   kill can still resolve through the dying incarnation's caches while
   the restart is in flight, and its buffered data dies with them (the
   unsynced-data-at-crash contract).  Bytes under vulnerable or failed
   writes are indeterminate and skipped; bytes never written must be
   zero. *)

type wrec = {
  w_pos : int;
  w_len : int;
  w_data : bytes;
  w_seq : int;  (* event seq at op start *)
  mutable w_done : int;  (* event seq at successful completion; -1 if not *)
}

let conc_max_pos = 4096
let conc_max_write = 1024
let conc_breaker = "lcs"

let run_point_concurrent ~supervised ~layer ~clients ~cops ~seed ~kill_at
    ~deadline_ns =
  let st = build_sim ~clients ~supervised () in
  Sp_avail.Breaker.reset conc_breaker;
  let live =
    Live.create ~at:kill_at
      ~fault:(fun () ->
        Sp_obj.Sdomain.kill
          (Sp_supervise.current st.sup layer).Stackable.sfs_domain)
      ~restarts:(fun () -> Sp_supervise.restarts st.sup)
      ~loud:(fun _ -> None)
  in
  let paths =
    Array.init clients (fun k -> Sname.of_components [ "c" ^ string_of_int k ])
  in
  let recs = Array.make clients [] in
  (* newest-first *)
  let cut_ev = ref 0 in
  let client k () =
    let wl = Rng.create (seed + ((k + 1) * 7919)) in
    let bo = Rng.create (seed + ((k + 1) * 104729)) in
    (* Stagger arrivals so kill boundaries interleave clients. *)
    Sp_sched.sleep (k * 1_000);
    for i = 1 to cops do
      Live.boundary live;
      if i mod 4 = 0 then begin
        (* Durable cut: only a sync that completed before the kill
           guarantees pre-sync-start writes survived it. *)
        let s0 = Live.events live in
        match
          Live.call live ~name:conc_breaker ~rng:bo ~deadline_ns (fun () ->
              Stackable.sync st.fs)
        with
        | Some () -> if not (Live.fired live) then cut_ev := max !cut_ev s0
        | None -> ()
      end
      else begin
        let w_seq = Live.tick live in
        let pos = Rng.int wl conc_max_pos in
        let len = 1 + Rng.int wl conc_max_write in
        let base = Rng.int wl 256 in
        let r =
          {
            w_pos = pos;
            w_len = len;
            w_data =
              Bytes.init len (fun j -> Char.chr ((base + j) land 0xff));
            w_seq;
            w_done = -1;
          }
        in
        recs.(k) <- r :: recs.(k);
        match
          Live.call live ~name:conc_breaker ~rng:bo ~deadline_ns (fun () ->
              (* Re-resolve the file every attempt: a handle minted by a
                 dead incarnation must not be retried into. *)
              let f = Stackable.open_file st.fs paths.(k) in
              ignore (File.write f ~pos:r.w_pos r.w_data))
        with
        | Some () -> r.w_done <- Live.tick live
        | None -> ()
      end
    done
  in
  let verify () =
    let problem = ref None in
    let fail fmt =
      Printf.ksprintf (fun m -> if !problem = None then problem := Some m) fmt
    in
    (* Writes started after this event are immune to the crash: with no
       kill nothing is vulnerable; with a kill but no observed recovery
       (unsupervised control) every post-kill write stays vulnerable. *)
    let safe_after = Live.safe_after live in
    Array.iteri
      (fun k rl ->
        let name = "c" ^ string_of_int k in
        let got =
          (* A client file turning unreadable after recovery is damage in
             its own right — report it as a lost file, don't crash. *)
          try File.read_all (Stackable.open_file st.fs paths.(k))
          with Sp_core.Fserr.Io_error m | Sp_core.Fserr.Checksum_error m ->
            fail "%s unreadable after recovery: %s" name m;
            Bytes.empty
        in
        let need =
          List.fold_left (fun a r -> max a (r.w_pos + r.w_len)) 0 rl
        in
        let j = ref 0 in
        while !j < need && !problem = None do
          let covering =
            List.find_opt
              (fun r -> !j >= r.w_pos && !j < r.w_pos + r.w_len)
              rl
          in
          (match covering with
          | Some r
            when r.w_done >= 0
                 && (r.w_done <= !cut_ev || r.w_seq > safe_after) ->
              let want = Bytes.get r.w_data (!j - r.w_pos) in
              if !j >= Bytes.length got then
                fail "%s[%d]: file too short (%d bytes) for a pinned byte"
                  name !j (Bytes.length got)
              else if Bytes.get got !j <> want then
                fail "%s[%d]: pinned byte lost: %C <> %C" name !j
                  (Bytes.get got !j) want
          | Some _ -> ()  (* vulnerable window or failed op *)
          | None ->
              if !j < Bytes.length got && Bytes.get got !j <> '\000' then
                fail "%s[%d]: never-written byte reads %C" name !j
                  (Bytes.get got !j));
          incr j
        done)
      recs;
    !problem
  in
  let finish () = Sp_supervise.unsupervise st.sup in
  let outcome =
    Fun.protect ~finally:finish @@ fun () ->
    match
      Array.iter (fun p -> ignore (Stackable.create st.fs p)) paths;
      Stackable.sync st.fs;
      ignore
        (Sp_sched.run ~seed (List.init clients (fun k -> client k)));
      (* Final durable cut, outside the run: post-kill state must be
         fully serveable (for the unsupervised control this is where the
         dead stack surfaces if every client op happened to land before
         the kill). *)
      Stackable.sync st.fs
    with
    | exception Sp_core.Fserr.Dead_domain who -> Live.Unavailable who
    | exception Sp_supervise.Give_up msg -> Live.Unavailable msg
    | exception Sp_core.Fserr.Io_error m -> Live.Lost ("io: " ^ m)
    | exception Sp_core.Fserr.Checksum_error m -> Live.Lost ("checksum: " ^ m)
    | () -> (
        match Live.loud_failure live with
        | Some m -> Live.Unavailable m
        | None -> (
            match verify () with
            | Some msg -> Live.Lost msg
            | None -> (
                match Sp_sfs.Fsck.summary (Sp_sfs.Fsck.check st.disk) with
                | Some problem -> Live.Corrupt problem
                | None ->
                    if supervised && Sp_supervise.restarts st.sup = 0 then
                      Live.Corrupt (layer ^ ": supervisor never restarted anything")
                    else Live.Served)))
  in
  (outcome, stack_counters st (Live.counters live))

(* ------------------------------------------------------------------ *)
(* The sweep                                                           *)
(* ------------------------------------------------------------------ *)

let scenario ?(supervised = true) ?(clients = 1)
    ?(op_deadline_ns = 1_000_000_000) ~ops ~seed () =
  if clients < 1 then invalid_arg "Layer_crash_sweep: clients must be >= 1";
  (* Concurrent mode sweeps *global* op boundaries (clients * per-client
     ops); single-client mode keeps the original per-op workload. *)
  let cops = max 2 (ops / clients) in
  let boundaries = if clients = 1 then ops else clients * cops in
  {
    Sp_sweep.label = "LAYER-CRASH-SWEEP";
    params =
      [
        ("supervised", Sp_sweep.on_off supervised);
        ("clients", string_of_int clients);
        ("layers", string_of_int (List.length layer_names));
      ];
    trailer = [ ("seed", string_of_int seed); ("ops", string_of_int ops) ];
    classes = Live.classes;
    failing = Live.failing;
    axes = List.map (fun layer -> (layer, boundaries)) layer_names;
    run =
      (fun { Sp_sweep.axis = layer; at = kill_at; _ } ->
        Live.verdict
          (if clients = 1 then run_point ~supervised ~layer ~ops ~seed ~kill_at
           else
             run_point_concurrent ~supervised ~layer ~clients ~cops ~seed
               ~kill_at ~deadline_ns:op_deadline_ns));
  }
