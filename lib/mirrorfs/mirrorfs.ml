module V = Sp_vm.Vm_types

type replica = Primary | Secondary

(* The file pair backing one exported file.  The lower handles are
   mutable: when a replica fails during create/open the survivor's handle
   stands in for it, and [repair] swaps a real handle back. *)
type pair = {
  p_key : string;
  mutable p_prim : Sp_core.File.t;
  mutable p_sec : Sp_core.File.t;
  p_state : Sp_coherency.Mrsw.t;
}

type layer = {
  l_name : string;
  l_domain : Sp_obj.Sdomain.t;
  l_vmm : Sp_vm.Vmm.t;
  mutable l_primary : Sp_core.Stackable.t option;
  mutable l_secondary : Sp_core.Stackable.t option;
  mutable l_degraded : replica option;
  mutable l_failovers : int;
  mutable l_repairs : int;
  l_channels : Sp_vm.Pager_lib.t;
  l_files : (string, pair * Sp_core.File.t) Hashtbl.t;
      (* each pair with its exported file, by {!file_key} *)
}

type Sp_obj.Exten.t += Layer of layer

let layer_of =
  Sp_core.Stackable.narrow ~what:"a mirrorfs layer" (function
    | Layer l -> Some l
    | _ -> None)

let replicas l =
  match (l.l_primary, l.l_secondary) with
  | Some p, Some s -> (p, s)
  | _ -> raise (Sp_core.Stackable.Stack_error (l.l_name ^ ": needs two underlays"))

let read_source l pair =
  match l.l_degraded with Some Primary -> pair.p_sec | _ -> pair.p_prim

let file_key l path =
  Printf.sprintf "mirrorfs:%s:%s" l.l_name (Sp_naming.Sname.to_string path)

let replica_name = function Primary -> "primary" | Secondary -> "secondary"

(* Copy [data] over [target], replacing whatever (possibly corrupt)
   content it held. *)
let overwrite target data =
  Sp_core.File.truncate target 0;
  if Bytes.length data > 0 then ignore (Sp_core.File.write target ~pos:0 data);
  Sp_core.File.sync target

let note_repair l ~file which reason =
  l.l_repairs <- l.l_repairs + 1;
  Sp_sim.Metrics.incr_integrity_repairs ();
  if Sp_trace.enabled () then
    Sp_trace.instant ~name:"scrub.repair"
      ~args:
        [
          ("layer", l.l_name); ("file", file); ("replica", replica_name which);
          ("reason", reason);
        ]
      ()

(* Automatic failover: an [Fserr.Io_error] from a replica (e.g. injected
   by [Sp_fault]) marks it degraded, exactly as [set_degraded] would, and
   the operation completes on the survivor.  [Sp_fault.Crash] is never
   caught — a machine crash is not a device failure. *)
let note_failover l which reason =
  l.l_degraded <- Some which;
  l.l_failovers <- l.l_failovers + 1;
  if Sp_trace.enabled () then
    Sp_trace.instant ~name:"mirrorfs.failover"
      ~args:
        [
          ("layer", l.l_name);
          ("replica", (match which with Primary -> "primary" | Secondary -> "secondary"));
          ("reason", reason);
        ]
      ()

(* Self-healing: [bad]'s stored bytes failed checksum verification but the
   other twin read clean — rewrite the bad twin from the good copy.  If
   the rewrite itself fails, fall back to degrading the bad replica, the
   same as an outright device failure. *)
let heal l pair ~bad ~good reason =
  let bad_f = match bad with Primary -> pair.p_prim | Secondary -> pair.p_sec in
  match overwrite bad_f (Sp_core.File.read_all good) with
  | () -> note_repair l ~file:pair.p_key bad reason
  | exception (Sp_core.Fserr.Io_error _ | Sp_core.Fserr.Checksum_error _) ->
      note_failover l bad reason

(* Run the same create/open/mkdir/remove against both lower file systems,
   tolerating the loss of one.  A degraded twin is never touched — its
   directory tree is stale until [repair] reconciles it, so probing it
   risks spurious [Already_exists]/[No_such_file] noise.  While both are
   live, a device or checksum failure on either side degrades that
   replica (directory metadata has no per-file heal path) and the
   survivor's result stands in for the missing one.  The stand-in handle
   is never reached while degraded — [read_source] and [each_target]
   route around the failed replica — and [repair] swaps real lower
   handles back in before the twin is trusted again.  When no replica
   survives, the error propagates. *)
let dual_acquire l ~prim_op ~sec_op =
  match l.l_degraded with
  | Some Primary ->
      let s = sec_op () in
      (s, s)
  | Some Secondary ->
      let p = prim_op () in
      (p, p)
  | None -> (
      let attempt op =
        match op () with
        | f -> Ok f
        | exception ((Sp_core.Fserr.Io_error r | Sp_core.Fserr.Checksum_error r) as e)
          ->
            Error (r, e)
      in
      let on_prim = attempt prim_op in
      let on_sec = attempt sec_op in
      match (on_prim, on_sec) with
      | Ok p, Ok s -> (p, s)
      | Ok p, Error (reason, _) ->
          note_failover l Secondary reason;
          (p, p)
      | Error (reason, _), Ok s ->
          note_failover l Primary reason;
          (s, s)
      | Error (_, e), Error _ -> raise e)

let with_read l pair f =
  match f (read_source l pair) with
  | v -> v
  | exception Sp_core.Fserr.Io_error reason when l.l_degraded = None ->
      note_failover l Primary reason;
      f pair.p_sec
  | exception Sp_core.Fserr.Checksum_error reason when l.l_degraded = None ->
      (* Silent corruption on the primary: serve the read from the
         secondary, then rewrite the primary's bad copy in place —
         redundancy is restored without degrading anything. *)
      let v = f pair.p_sec in
      heal l pair ~bad:Primary ~good:pair.p_sec reason;
      v

(* Apply [f] to every live replica of the pair.  A replica whose write
   fails is degraded as long as the other one took the write; when no
   replica survives, the error propagates. *)
let each_target l pair f =
  let targets =
    match l.l_degraded with
    | Some Primary -> [ (Secondary, pair.p_sec) ]
    | Some Secondary -> [ (Primary, pair.p_prim) ]
    | None -> [ (Primary, pair.p_prim); (Secondary, pair.p_sec) ]
  in
  let failures =
    List.filter_map
      (fun (which, file) ->
        match f file with
        | () -> None
        | exception Sp_core.Fserr.Io_error reason -> Some (which, reason)
        | exception Sp_core.Fserr.Checksum_error reason -> Some (which, reason))
      targets
  in
  match failures with
  | [] -> ()
  | [ (which, reason) ] when List.length targets = 2 -> note_failover l which reason
  | (_, reason) :: _ -> raise (Sp_core.Fserr.Io_error reason)

let pair_len l pair = with_read l pair (fun f -> (Sp_core.File.stat f).Sp_vm.Attr.len)

(* Clip to the pair's length and write to every live replica. *)
let store l pair ~retain:_ ~offset data =
  let len = pair_len l pair in
  let keep = min (Bytes.length data) (max 0 (len - offset)) in
  if keep > 0 then
    each_target l pair (fun f ->
        ignore (Sp_core.File.write f ~pos:offset (Bytes.sub data 0 keep)))

let truncate_pair l pair len =
  Sp_coherency.Mrsw.shrink pair.p_state ~channels:l.l_channels ~key:pair.p_key
    ~old:(pair_len l pair) ~len ~write_down:(fun x ->
      each_target l pair (fun f ->
          ignore (Sp_core.File.write f ~pos:x.V.ext_offset x.V.ext_data)));
  each_target l pair (fun f -> Sp_core.File.truncate f len)

(* Export the pair of lower files [p_prim], [p_sec] opened or created at
   [path], and record it for {!repair}. *)
let export_pair l path (p_prim, p_sec) =
  let pair =
    { p_key = file_key l path; p_prim; p_sec; p_state = Sp_coherency.Mrsw.create () }
  in
  let stat () = with_read l pair Sp_core.File.stat in
  let set_attr a = each_target l pair (fun f -> Sp_core.File.set_attr f a) in
  let fs_pager =
    {
      V.fp_get_attr = stat;
      fp_set_attr = set_attr;
      fp_attr_sync =
        (fun a ->
          each_target l pair (fun f ->
              V.set_length f.Sp_core.File.f_mem a.Sp_vm.Attr.len;
              Sp_core.File.set_attr f a));
    }
  in
  let f =
    Sp_coherency.Mrsw.export_file ~vmm:l.l_vmm ~domain:l.l_domain ~channels:l.l_channels
      ~key:pair.p_key
      ~produce:(fun ~offset ~size ~access:_ ->
        with_read l pair (fun f -> Sp_core.File.read_padded f ~pos:offset ~len:size))
      ~store:(store l pair)
      ~fs_pager:(fun ~id:_ -> fs_pager)
      ~stat
      ~length:(fun () -> pair_len l pair)
      ~set_attr
      ~grow:(fun len ->
        each_target l pair (fun f ->
            if (Sp_core.File.stat f).Sp_vm.Attr.len < len then
              V.set_length f.Sp_core.File.f_mem len))
      ~truncate:(truncate_pair l pair)
      ~sync:(fun () -> each_target l pair Sp_core.File.sync)
      pair.p_state
  in
  Hashtbl.replace l.l_files pair.p_key (pair, f);
  f

(* Run [op] on replica [which] unless it is degraded.  While both are
   live, a device or checksum failure degrades it. *)
let on_replica l which fs op =
  if l.l_degraded <> Some which then
    try op fs
    with (Sp_core.Fserr.Io_error reason | Sp_core.Fserr.Checksum_error reason)
    when l.l_degraded = None
    ->
      note_failover l which reason

(* The exported context resolves in BOTH lower file systems by path, so it
   is built per-directory from the primary's listing. *)
let rec make_ctx l ~path =
  let label =
    if Sp_naming.Sname.is_empty path then l.l_name
    else l.l_name ^ "/" ^ Sp_naming.Sname.to_string path
  in
  let resolve1 component =
    let prim, sec = replicas l in
    let sub = Sp_naming.Sname.append path component in
    let source = match l.l_degraded with Some Primary -> sec | _ -> prim in
    let resolved =
      (* Directory metadata has no per-file heal path: a checksum failure
         while resolving degrades the replica, exactly like an I/O error. *)
      match Sp_naming.Context.resolve source.Sp_core.Stackable.sfs_ctx sub with
      | r -> r
      | exception (Sp_core.Fserr.Io_error reason | Sp_core.Fserr.Checksum_error reason)
        when l.l_degraded = None ->
          note_failover l Primary reason;
          Sp_naming.Context.resolve sec.Sp_core.Stackable.sfs_ctx sub
    in
    match resolved with
    | Sp_naming.Context.Context _ ->
        Sp_naming.Context.Context (make_ctx l ~path:sub)
    | Sp_core.File.File _ -> (
        match Hashtbl.find_opt l.l_files (file_key l sub) with
        | Some (_, f) ->
            Sp_sim.Simclock.advance (Sp_sim.Cost_model.current ()).open_state_ns;
            Sp_core.File.File f
        | None ->
            let f =
              export_pair l sub
                (dual_acquire l
                   ~prim_op:(fun () -> Sp_core.Stackable.open_file prim sub)
                   ~sec_op:(fun () -> Sp_core.Stackable.open_file sec sub))
            in
            Sp_sim.Simclock.advance (Sp_sim.Cost_model.current ()).open_state_ns;
            Sp_core.File.File f)
    | other -> other
  in
  let list () =
    let prim, sec = replicas l in
    let source = match l.l_degraded with Some Primary -> sec | _ -> prim in
    match Sp_naming.Context.list source.Sp_core.Stackable.sfs_ctx path with
    | listing -> listing
    | exception (Sp_core.Fserr.Io_error reason | Sp_core.Fserr.Checksum_error reason)
      when l.l_degraded = None ->
        note_failover l Primary reason;
        Sp_naming.Context.list sec.Sp_core.Stackable.sfs_ctx path
  in
  (* The twins hold identical directories, so a cursor taken from one
     replica stays valid on the other after a mid-scan failover. *)
  let readdir1 ~cookie ~limit =
    let prim, sec = replicas l in
    let source = match l.l_degraded with Some Primary -> sec | _ -> prim in
    match
      Sp_naming.Context.readdir source.Sp_core.Stackable.sfs_ctx path ~cookie
        ~limit
    with
    | batch -> batch
    | exception (Sp_core.Fserr.Io_error reason | Sp_core.Fserr.Checksum_error reason)
      when l.l_degraded = None ->
        note_failover l Primary reason;
        Sp_naming.Context.readdir sec.Sp_core.Stackable.sfs_ctx path ~cookie
          ~limit
  in
  {
    Sp_naming.Context.ctx_domain = l.l_domain;
    ctx_label = label;
    ctx_acl = (fun () -> Sp_naming.Acl.open_acl);
    ctx_set_acl = (fun _ -> ());
    ctx_resolve1 = resolve1;
    ctx_bind1 = (fun _ _ -> invalid_arg (label ^ ": bind files via create"));
    ctx_rebind1 = (fun _ _ -> invalid_arg (label ^ ": rebind unsupported"));
    ctx_unbind1 =
      (fun component ->
        let prim, sec = replicas l in
        let sub = Sp_naming.Sname.append path component in
        let key = file_key l sub in
        Sp_vm.Pager_lib.destroy_key l.l_channels ~key;
        Hashtbl.remove l.l_files key;
        on_replica l Primary prim (fun fs -> Sp_core.Stackable.remove fs sub);
        on_replica l Secondary sec (fun fs ->
            try Sp_core.Stackable.remove fs sub with Sp_core.Fserr.No_such_file _ -> ()));
    ctx_list = list;
    ctx_readdir1 = readdir1;
  }

let make ?(node = "local") ?domain ~vmm ~name () =
  let domain =
    match domain with Some d -> d | None -> Sp_obj.Sdomain.create ~node name
  in
  let l =
    {
      l_name = name;
      l_domain = domain;
      l_vmm = vmm;
      l_primary = None;
      l_secondary = None;
      l_degraded = None;
      l_failovers = 0;
      l_repairs = 0;
      l_channels = Sp_vm.Pager_lib.create ();
      l_files = Hashtbl.create 16;
    }
  in
  let ctx = make_ctx l ~path:(Sp_naming.Sname.of_components []) in
  {
    Sp_core.Stackable.sfs_name = name;
    sfs_type = "mirrorfs";
    sfs_domain = domain;
    sfs_ctx = ctx;
    sfs_stack_on =
      (fun under ->
        match (l.l_primary, l.l_secondary) with
        | None, _ -> l.l_primary <- Some under
        | Some _, None -> l.l_secondary <- Some under
        | Some _, Some _ ->
            raise
              (Sp_core.Stackable.Stack_error
                 (name ^ ": mirrorfs stacks on exactly two file systems")));
    sfs_unders =
      (fun () -> List.filter_map Fun.id [ l.l_primary; l.l_secondary ]);
    sfs_create =
      (fun path ->
        let prim, sec = replicas l in
        export_pair l path
          (dual_acquire l
             ~prim_op:(fun () -> Sp_core.Stackable.create prim path)
             ~sec_op:(fun () -> Sp_core.Stackable.create sec path)));
    sfs_mkdir =
      (fun path ->
        let prim, sec = replicas l in
        ignore
          (dual_acquire l
             ~prim_op:(fun () -> Sp_core.Stackable.mkdir prim path)
             ~sec_op:(fun () -> Sp_core.Stackable.mkdir sec path)));
    sfs_remove =
      (fun path ->
        let prim, sec = replicas l in
        let key = file_key l path in
        Sp_vm.Pager_lib.destroy_key l.l_channels ~key;
        Hashtbl.remove l.l_files key;
        ignore
          (dual_acquire l
             ~prim_op:(fun () -> Sp_core.Stackable.remove prim path)
             ~sec_op:(fun () -> Sp_core.Stackable.remove sec path)));
    sfs_sync =
      (fun () ->
        Hashtbl.iter (fun _ (_, f) -> Sp_core.File.sync f) l.l_files;
        let prim, sec = replicas l in
        on_replica l Primary prim Sp_core.Stackable.sync;
        on_replica l Secondary sec Sp_core.Stackable.sync);
    sfs_drop_caches =
      (fun () ->
        (* A degraded replica is out of service: flushing its caches would
           touch the very metadata that failed, so route around it until
           [repair] brings it back. *)
        let prim, sec = replicas l in
        on_replica l Primary prim Sp_core.Stackable.drop_caches;
        on_replica l Secondary sec Sp_core.Stackable.drop_caches);
    sfs_exten = [ Layer l ];
  }

let creator ?(node = "local") ~vmm () =
  {
    Sp_core.Stackable.cr_type = "mirrorfs";
    cr_create = (fun ~name -> make ~node ~vmm ~name ());
  }

let set_degraded sfs replica = (layer_of sfs).l_degraded <- replica
let degraded sfs = (layer_of sfs).l_degraded
let failovers sfs = (layer_of sfs).l_failovers
let repairs sfs = (layer_of sfs).l_repairs

let lower_pair sfs path =
  let l = layer_of sfs in
  let prim, sec = replicas l in
  (Sp_core.Stackable.open_file prim path, Sp_core.Stackable.open_file sec path)

let verify sfs path =
  let fp, fs = lower_pair sfs path in
  Bytes.equal (Sp_core.File.read_all fp) (Sp_core.File.read_all fs)

(* Background scrub: walk every file, read both twins from their devices
   (caches dropped first so verification actually reaches stored bytes),
   and heal divergence.  A checksum failure identifies the wrong twin
   directly; when both read clean but differ — a lost write leaves stale
   data whose old checksum still matches — the non-degraded twin is
   authoritative, as in {!repair}. *)
let scrub sfs =
  let l = layer_of sfs in
  let prim, sec = replicas l in
  Sp_core.Stackable.drop_caches prim;
  Sp_core.Stackable.drop_caches sec;
  let repaired = ref 0 in
  let read_clean f =
    match Sp_core.File.read_all f with
    | data -> Some data
    | exception Sp_core.Fserr.Checksum_error _ -> None
  in
  let fix path target which data =
    overwrite target data;
    incr repaired;
    note_repair l ~file:(Sp_naming.Sname.to_string path) which "scrub"
  in
  let scrub_file path =
    let fp = Sp_core.Stackable.open_file prim path in
    let fs = Sp_core.Stackable.open_file sec path in
    match (read_clean fp, read_clean fs) with
    | Some p, Some s ->
        if not (Bytes.equal p s) then (
          match l.l_degraded with
          | Some Primary -> fix path fp Primary s
          | _ -> fix path fs Secondary p)
    | None, Some s -> fix path fp Primary s
    | Some p, None -> fix path fs Secondary p
    | None, None -> ()
    (* both twins damaged: nothing trustworthy to heal from; reads keep
       raising Checksum_error, which is detection, not silence *)
  in
  let rec walk path =
    List.iter
      (fun component ->
        let sub = Sp_naming.Sname.append path component in
        match Sp_naming.Context.resolve prim.Sp_core.Stackable.sfs_ctx sub with
        | Sp_naming.Context.Context _ -> walk sub
        | Sp_core.File.File _ -> scrub_file sub
        | _ -> ())
      (Sp_naming.Context.list prim.Sp_core.Stackable.sfs_ctx path)
  in
  walk (Sp_naming.Sname.of_components []);
  !repaired

let repair sfs path =
  let l = layer_of sfs in
  let prim, sec = replicas l in
  let source_fs, target_fs =
    match l.l_degraded with Some Primary -> (sec, prim) | _ -> (prim, sec)
  in
  let source = Sp_core.Stackable.open_file source_fs path in
  let target =
    match Sp_core.Stackable.open_file target_fs path with
    | f -> f
    | exception Sp_core.Fserr.No_such_file _ -> Sp_core.Stackable.create target_fs path
  in
  let data = Sp_core.File.read_all source in
  Sp_core.File.truncate target 0;
  ignore (Sp_core.File.write target ~pos:0 data);
  Sp_core.File.sync target;
  (* A pair opened or created while the twin was down carries the
     survivor's handle in the failed slot; now that the twin holds the
     file again, swap the real lower handles back in. *)
  (match Hashtbl.find_opt l.l_files (file_key l path) with
  | Some (pair, _) ->
      pair.p_prim <- Sp_core.Stackable.open_file prim path;
      pair.p_sec <- Sp_core.Stackable.open_file sec path
  | None -> ());
  (* The twin is whole again: clear the degraded mark so a *later*
     failure of either replica can fail over afresh instead of being
     treated as a second fault on an already-degraded mirror. *)
  l.l_degraded <- None
