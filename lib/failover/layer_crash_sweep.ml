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
module Files = Sp_sweep.Files
module Live = Sp_sweep.Live

let disk_blocks = 2048
let layer_names = [ "lcs.disk"; "lcs.coh"; "lcs.crypt"; "lcs.comp" ]

type sim = {
  sup : Sp_supervise.t;
  fs : Stackable.t;  (* the supervised handle (or the bare top) *)
  disk : Disk.t;
  vmm : Sp_vm.Vmm.t;
  files : Files.t;  (* the serial workload's model *)
}

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
  { sup; fs; disk; vmm; files = Files.create fs }

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
  let synced = Files.synced st.files in
  List.iter
    (fun name ->
      match ignore (Files.read st.fs name) with
      | () -> ()
      | exception Sp_core.Fserr.Io_error msg ->
          if List.mem_assoc name synced then begin
            if !damaged = None then
              damaged :=
                Some
                  (Printf.sprintf "synced file %s unreadable after restart: %s"
                     name msg)
          end
          else Files.remove st.files name)
    (* Snapshot the listing before the loop: the body removes entries,
       and a readdir cursor is only weakly consistent under mutation. *)
    (Files.listing st.fs);
  !damaged

let interval_covers intervals j =
  List.exists (fun (pos, len) -> j >= pos && j < pos + len) intervals

(* The per-byte durability floor described at the top of the file.  A
   synced file still present in the model was not removed since the
   sync; a file outside the synced cut that the model has was created
   since. *)
let check_floor st actual =
  let problem = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !problem = None then problem := Some m) fmt in
  let synced = Files.synced st.files in
  List.iter
    (fun (name, want) ->
      if Files.present st.files name then
        match List.assoc_opt name actual with
        | None -> fail "synced file %s vanished" name
        | Some got ->
            if Bytes.length got < Bytes.length want then
              fail "synced file %s shrank: %d < %d bytes" name
                (Bytes.length got) (Bytes.length want)
            else
              let dirty = Files.written_since_sync st.files name in
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
    synced;
  List.iter
    (fun (name, _) ->
      if (not (List.mem_assoc name synced)) && not (Files.present st.files name) then
        fail "unexpected file %s appeared" name)
    actual;
  !problem

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
  let step = Files.step st.files rng ~client:None ~reads:false ~sync_every:5 in
  let finish () = Sp_supervise.unsupervise st.sup in
  let outcome =
    Fun.protect ~finally:finish @@ fun () ->
    match
    let restarts0 = Sp_supervise.restarts st.sup in
    for i = 1 to kill_at - 1 do
      step i
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
      | None -> check_floor st (Files.read_back st.fs)
    in
    (match floor with
    | Some msg -> Error (Live.Lost msg)
    | None ->
        Files.adopt st.files (Files.read_back st.fs);
        for i = kill_at to ops do
          step i
        done;
        Files.sync st.files;
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
            match Files.mismatch st.fs (Files.expected st.files) with
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
    let wl = Files.client_rng ~seed k in
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
        let seq = Live.tick live in
        let pos, data =
          Files.draw wl ~max_pos:conc_max_pos ~max_write:conc_max_write
        in
        let r = { Live.pos; data; seq; done_at = -1 } in
        recs.(k) <- r :: recs.(k);
        match
          Live.call live ~name:conc_breaker ~rng:bo ~deadline_ns (fun () ->
              (* Re-resolve the file every attempt: a handle minted by a
                 dead incarnation must not be retried into. *)
              let f = Stackable.open_file st.fs paths.(k) in
              ignore (File.write f ~pos:r.pos r.data))
        with
        | Some () -> r.done_at <- Live.tick live
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
        let ends (r : Live.write) = r.pos + Bytes.length r.data in
        let need = List.fold_left (fun a r -> max a (ends r)) 0 rl in
        let j = ref 0 in
        while !j < need && !problem = None do
          let covering = List.find_opt (fun r -> !j >= r.Live.pos && !j < ends r) rl in
          (match covering with
          | Some r when Live.pinned r ~cut:!cut_ev ~safe_after ->
              let want = Bytes.get r.data (!j - r.pos) in
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
