module V = Sp_vm.Vm_types
module Csum = Sp_sfs.Csum

let ps = V.page_size

type centry = {
  e_key : string;
  e_lower : Sp_core.File.t;
  e_state : Sp_coherency.Mrsw.t;
  e_sums : (int, int) Hashtbl.t;  (* page index -> FNV-1a of the padded page *)
}

type layer = {
  l_name : string;
  l_domain : Sp_obj.Sdomain.t;
  l_vmm : Sp_vm.Vmm.t;
  mutable l_lower : Sp_core.Stackable.t option;
  mutable l_verified : int;
  mutable l_failures : int;
  l_channels : Sp_vm.Pager_lib.t;
  l_wrapped : (string, Sp_core.File.t * Sp_core.File.t) Hashtbl.t;
      (* lower file id -> (lower file, wrapper) *)
}

let instances : (string, layer) Hashtbl.t = Hashtbl.create 4

let layer_of (sfs : Sp_core.Stackable.t) =
  match Hashtbl.find_opt instances sfs.Sp_core.Stackable.sfs_name with
  | Some l -> l
  | None -> invalid_arg (sfs.Sp_core.Stackable.sfs_name ^ ": not an integrityfs layer")

let lower_of l =
  match l.l_lower with
  | Some fs -> fs
  | None -> raise (Sp_core.Stackable.Stack_error (l.l_name ^ ": not stacked yet"))

let lower_len e = (Sp_core.File.stat e.e_lower).Sp_vm.Attr.len

(* Read one lower page, zero-padded to a full page. *)
let read_lower_page e page =
  let data = Sp_core.File.read e.e_lower ~pos:(page * ps) ~len:ps in
  if Bytes.length data = ps then data
  else begin
    let padded = Bytes.make ps '\000' in
    Bytes.blit data 0 padded 0 (Bytes.length data);
    padded
  end

(* Verify a padded page against the recorded checksum.  Pages never seen
   before are trusted on first read (the layer has no store of its own to
   persist sums in); once recorded, any later divergence of the lower
   layer's bytes is a hard [Checksum_error], not wrong data. *)
let verify_page l e page data =
  Sp_obj.Door.charge_cpu (Csum.work_units ps);
  let sum = Csum.cksum data in
  match Hashtbl.find_opt e.e_sums page with
  | None -> Hashtbl.replace e.e_sums page sum
  | Some want when want = sum -> l.l_verified <- l.l_verified + 1
  | Some _ ->
      l.l_failures <- l.l_failures + 1;
      Sp_sim.Metrics.incr_checksum_failures ();
      if Sp_trace.enabled () then
        Sp_trace.instant ~name:"checksum:mismatch"
          ~args:
            [
              ("layer", l.l_name); ("file", e.e_key); ("page", string_of_int page);
            ]
          ();
      raise
        (Sp_core.Fserr.Checksum_error
           (Printf.sprintf "%s: page %d from below does not match its recorded checksum"
              e.e_key page))

let record_page l e page data =
  ignore l;
  Sp_obj.Door.charge_cpu (Csum.work_units ps);
  Hashtbl.replace e.e_sums page (Csum.cksum data)

(* Forget sums from the page containing [len] upward (their lower bytes
   are about to change shape under a shrink). *)
let invalidate_from e len =
  let first = len / ps in
  let victims =
    Hashtbl.fold (fun p _ acc -> if p >= first then p :: acc else acc) e.e_sums []
  in
  List.iter (Hashtbl.remove e.e_sums) victims

let set_len e new_len =
  let old_len = lower_len e in
  if new_len < old_len then invalidate_from e new_len;
  V.set_length e.e_lower.Sp_core.File.f_mem new_len

(* [size] verified bytes at [offset]. *)
let read_verified l e ~offset ~size =
  let out = Bytes.create size in
  let rec go cursor =
    if cursor < size then begin
      let off = offset + cursor in
      let page = V.page_index off in
      let data = read_lower_page e page in
      verify_page l e page data;
      let in_page = off - (page * ps) in
      let n = min (size - cursor) (ps - in_page) in
      Bytes.blit data in_page out cursor n;
      go (cursor + n)
    end
  in
  go 0;
  out

let store l e ~retain:_ ~offset data =
  (* Clip to the current length, like every passthrough layer. *)
  let len = lower_len e in
  let keep = min (Bytes.length data) (max 0 (len - offset)) in
  if keep > 0 then begin
    ignore (Sp_core.File.write e.e_lower ~pos:offset (Bytes.sub data 0 keep));
    (* Re-checksum what we now know: a page whose content this push
       fully determines (whole page, or prefix up to EOF — the read
       path zero-pads the tail) is recorded; a partially-overwritten
       page is forgotten and re-trusted on its next page_in. *)
    let first = offset / ps and last = (offset + keep - 1) / ps in
    for page = first to last do
      let start = page * ps in
      let lo = max offset start and hi = min (offset + keep) (start + ps) in
      if lo = start && (hi = start + ps || hi >= len) then begin
        let padded = Bytes.make ps '\000' in
        Bytes.blit data (lo - offset) padded 0 (hi - lo);
        record_page l e page padded
      end
      else Hashtbl.remove e.e_sums page
    done
  end

let upper_pager l e ~id =
  Sp_coherency.Mrsw.pager e.e_state ~channels:l.l_channels ~id ~domain:l.l_domain
    ~label:e.e_key
    ~produce:(fun ~offset ~size ~access:_ -> read_verified l e ~offset ~size)
    ~store:(store l e)
    {
      V.fp_get_attr = (fun () -> Sp_core.File.stat e.e_lower);
      fp_set_attr = (fun a -> Sp_core.File.set_attr e.e_lower a);
      fp_attr_sync =
        (fun a ->
          let len = a.Sp_vm.Attr.len in
          if len <> lower_len e then set_len e len;
          Sp_core.File.set_attr e.e_lower a);
    }

(* A shrink writes back outside any grant section, so it takes the
   protocol's write side as a push does. *)
let truncate_entry l e len =
  Sp_coherency.Mrsw.shrink e.e_state ~channels:l.l_channels ~key:e.e_key ~old:(lower_len e)
    ~len ~write_down:(fun x ->
      Sp_coherency.Mrsw.granting e.e_state ~access:V.Read_write (fun () ->
          store l e ~retain:`Same ~offset:x.V.ext_offset x.V.ext_data));
  set_len e len

let wrap_file l (lower : Sp_core.File.t) =
  match Hashtbl.find_opt l.l_wrapped lower.Sp_core.File.f_id with
  | Some (stored, f) when stored == lower -> f
  | Some _ | None ->
      let e =
        {
          e_key = Printf.sprintf "integrityfs:%s:%s" l.l_name lower.Sp_core.File.f_id;
          e_lower = lower;
          e_state = Sp_coherency.Mrsw.create ();
          e_sums = Hashtbl.create 16;
        }
      in
      let mem =
        {
          V.m_domain = l.l_domain;
          m_label = e.e_key;
          m_bind =
            (fun mgr _access ->
              Sp_vm.Pager_lib.bind l.l_channels ~key:e.e_key
                ~make_pager:(fun ~id -> upper_pager l e ~id)
                mgr);
          m_get_length = (fun () -> lower_len e);
          m_set_length = (fun len -> truncate_entry l e len);
        }
      in
      let mapped =
        Sp_core.File.mapped_ops ~vmm:l.l_vmm ~mem
          ~get_attr:(fun () -> Sp_core.File.stat e.e_lower)
          ~set_attr_len:(fun len -> if len > lower_len e then set_len e len)
      in
      let f =
        {
          Sp_core.File.f_id = e.e_key;
          f_domain = l.l_domain;
          f_mem = mem;
          f_read = mapped.Sp_core.File.mo_read;
          f_write = mapped.Sp_core.File.mo_write;
          f_stat = (fun () -> Sp_core.File.stat e.e_lower);
          f_set_attr = (fun a -> Sp_core.File.set_attr e.e_lower a);
          f_truncate = (fun len -> truncate_entry l e len);
          f_sync =
            (fun () ->
              mapped.Sp_core.File.mo_sync ();
              Sp_core.File.sync e.e_lower);
          f_exten = [];
        }
      in
      Hashtbl.replace l.l_wrapped lower.Sp_core.File.f_id (lower, f);
      f

let make ?(node = "local") ?domain ~vmm ~name () =
  let domain =
    match domain with Some d -> d | None -> Sp_obj.Sdomain.create ~node name
  in
  let l =
    {
      l_name = name;
      l_domain = domain;
      l_vmm = vmm;
      l_lower = None;
      l_verified = 0;
      l_failures = 0;
      l_channels = Sp_vm.Pager_lib.create ();
      l_wrapped = Hashtbl.create 16;
    }
  in
  Hashtbl.replace instances name l;
  let ctx = ref None in
  let get_ctx () =
    match !ctx with
    | Some c -> c
    | None ->
        let lower = lower_of l in
        let charge_open (_ : Sp_core.File.t) =
          Sp_sim.Simclock.advance (Sp_sim.Cost_model.current ()).open_state_ns
        in
        let c =
          Sp_core.Mapped_context.make ~domain ~label:name
            ~lower:lower.Sp_core.Stackable.sfs_ctx ~wrap_file:(wrap_file l)
            ~on_file:charge_open ()
        in
        ctx := Some c;
        c
  in
  let exported_ctx =
    {
      Sp_naming.Context.ctx_domain = domain;
      ctx_label = name;
      ctx_acl = (fun () -> Sp_naming.Acl.open_acl);
      ctx_set_acl = (fun _ -> ());
      ctx_resolve1 = (fun c -> (get_ctx ()).Sp_naming.Context.ctx_resolve1 c);
      ctx_bind1 = (fun c o -> (get_ctx ()).Sp_naming.Context.ctx_bind1 c o);
      ctx_rebind1 = (fun c o -> (get_ctx ()).Sp_naming.Context.ctx_rebind1 c o);
      ctx_unbind1 = (fun c -> (get_ctx ()).Sp_naming.Context.ctx_unbind1 c);
      ctx_list = (fun () -> (get_ctx ()).Sp_naming.Context.ctx_list ());
      ctx_readdir1 =
        (fun ~cookie ~limit ->
          (get_ctx ()).Sp_naming.Context.ctx_readdir1 ~cookie ~limit);
    }
  in
  {
    Sp_core.Stackable.sfs_name = name;
    sfs_type = "integrityfs";
    sfs_domain = domain;
    sfs_ctx = exported_ctx;
    sfs_stack_on =
      (fun under ->
        match l.l_lower with
        | Some _ ->
            raise
              (Sp_core.Stackable.Stack_error
                 (name ^ ": integrityfs stacks on exactly one file system"))
        | None -> l.l_lower <- Some under);
    sfs_unders = (fun () -> Option.to_list l.l_lower);
    sfs_create =
      (fun path -> wrap_file l (Sp_core.Stackable.create (lower_of l) path));
    sfs_mkdir = (fun path -> Sp_core.Stackable.mkdir (lower_of l) path);
    sfs_remove =
      (fun path ->
        let lower = lower_of l in
        (match Sp_core.Stackable.open_file lower path with
        | lf ->
            Sp_vm.Pager_lib.destroy_key l.l_channels
              ~key:(Printf.sprintf "integrityfs:%s:%s" l.l_name lf.Sp_core.File.f_id);
            Hashtbl.remove l.l_wrapped lf.Sp_core.File.f_id
        | exception _ -> ());
        Sp_core.Stackable.remove lower path);
    sfs_sync =
      (fun () ->
        Hashtbl.iter (fun _ (_, f) -> Sp_core.File.sync f) l.l_wrapped;
        Sp_core.Stackable.sync (lower_of l));
    sfs_drop_caches = (fun () -> Sp_core.Stackable.drop_caches (lower_of l));
  }

let creator ?(node = "local") ~vmm () =
  {
    Sp_core.Stackable.cr_type = "integrityfs";
    cr_create = (fun ~name -> make ~node ~vmm ~name ());
  }

let verified sfs = (layer_of sfs).l_verified
let failures sfs = (layer_of sfs).l_failures
