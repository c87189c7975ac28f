module V = Sp_vm.Vm_types

let ps = V.page_size

type centry = {
  e_key : string;
  e_lower : Sp_core.File.t;
  e_state : Sp_coherency.Mrsw.t;
}

type layer = {
  l_name : string;
  l_domain : Sp_obj.Sdomain.t;
  l_vmm : Sp_vm.Vmm.t;
  l_cipher_key : string;
  mutable l_lower : Sp_core.Stackable.t option;
  l_channels : Sp_vm.Pager_lib.t;
  l_wrapped : (string, Sp_core.File.t * Sp_core.File.t) Hashtbl.t;
      (* lower file id -> (lower file, wrapper) *)
}

let lower_of l =
  match l.l_lower with
  | Some fs -> fs
  | None -> raise (Sp_core.Stackable.Stack_error (l.l_name ^ ": not stacked yet"))

let lower_len e = (Sp_core.File.stat e.e_lower).Sp_vm.Attr.len

(* Read one ciphertext page and return the plaintext, zero-padded. *)
let read_plain_page l e page =
  let pos = page * ps in
  let data = Sp_core.File.read e.e_lower ~pos ~len:ps in
  Sp_obj.Door.charge_cpu (Cipher.work_units (Bytes.length data));
  let plain = Cipher.apply ~key:l.l_cipher_key ~page data in
  if Bytes.length plain = ps then plain
  else begin
    let padded = Bytes.make ps '\000' in
    Bytes.blit plain 0 padded 0 (Bytes.length plain);
    padded
  end

(* Growing the file must fill the gap with encrypted zeros: a hole of raw
   zeros in the ciphertext would decrypt to keystream garbage. *)
let grow_with_zeros l e ~old_len ~new_len =
  if new_len > old_len then begin
    let rec go pos =
      if pos < new_len then begin
        let page = V.page_index pos in
        let upto = min new_len ((page + 1) * ps) in
        let plain = read_plain_page l e page in
        Bytes.fill plain (pos - (page * ps)) (upto - pos) '\000';
        let cipher = Cipher.apply ~key:l.l_cipher_key ~page plain in
        Sp_obj.Door.charge_cpu (Cipher.work_units (upto - (page * ps)));
        ignore
          (Sp_core.File.write e.e_lower ~pos:(page * ps)
             (Bytes.sub cipher 0 (upto - (page * ps))));
        go upto
      end
    in
    go old_len
  end

let set_len l e new_len =
  let old_len = lower_len e in
  grow_with_zeros l e ~old_len ~new_len;
  if new_len < old_len then V.set_length e.e_lower.Sp_core.File.f_mem new_len

(* The plaintext of [size] bytes at [offset]. *)
let read_plain l e ~offset ~size =
  let out = Bytes.create size in
  let rec go cursor =
    if cursor < size then begin
      let off = offset + cursor in
      let page = V.page_index off in
      let plain = read_plain_page l e page in
      let in_page = off - (page * ps) in
      let n = min (size - cursor) (ps - in_page) in
      Bytes.blit plain in_page out cursor n;
      go (cursor + n)
    end
  in
  go 0;
  out

let store l e ~retain:_ ~offset data =
  (* Clip to the current length: pages arrive whole from caches, but the
     ciphertext file must stay exactly as long as the plaintext. *)
  let len = lower_len e in
  let keep = min (Bytes.length data) (max 0 (len - offset)) in
  if keep > 0 then begin
    let rec go cursor =
      if cursor < keep then begin
        let off = offset + cursor in
        let page = V.page_index off in
        let in_page = off - (page * ps) in
        let n = min (keep - cursor) (ps - in_page) in
        let chunk =
          if in_page = 0 && n = ps then Bytes.sub data cursor n
          else begin
            (* Partial page: fetch, patch, re-encrypt whole page. *)
            let plain = read_plain_page l e page in
            Bytes.blit data cursor plain in_page n;
            Bytes.sub plain 0 (min ps (max (in_page + n) (len - (page * ps))))
          end
        in
        let cipher_page = Cipher.apply ~key:l.l_cipher_key ~page chunk in
        Sp_obj.Door.charge_cpu (Cipher.work_units (Bytes.length cipher_page));
        ignore (Sp_core.File.write e.e_lower ~pos:(page * ps) cipher_page);
        go (cursor + n)
      end
    in
    go 0
  end

let upper_pager l e ~id =
  Sp_coherency.Mrsw.pager e.e_state ~channels:l.l_channels ~id ~domain:l.l_domain
    ~label:e.e_key
    ~produce:(fun ~offset ~size ~access:_ -> read_plain l e ~offset ~size)
    ~store:(store l e)
    {
      V.fp_get_attr = (fun () -> Sp_core.File.stat e.e_lower);
      fp_set_attr = (fun a -> Sp_core.File.set_attr e.e_lower a);
      fp_attr_sync =
        (fun a ->
          let len = a.Sp_vm.Attr.len in
          if len <> lower_len e then set_len l e len;
          Sp_core.File.set_attr e.e_lower a);
    }

(* A shrink writes back outside any grant section, so it takes the
   protocol's write side as a push does. *)
let truncate_entry l e len =
  Sp_coherency.Mrsw.shrink e.e_state ~channels:l.l_channels ~key:e.e_key ~old:(lower_len e)
    ~len ~write_down:(fun x ->
      Sp_coherency.Mrsw.granting e.e_state ~access:V.Read_write (fun () ->
          store l e ~retain:`Same ~offset:x.V.ext_offset x.V.ext_data));
  set_len l e len

let wrap_file l (lower : Sp_core.File.t) =
  match Hashtbl.find_opt l.l_wrapped lower.Sp_core.File.f_id with
  | Some (stored, f) when stored == lower -> f
  | Some _ | None ->
      let e =
        {
          e_key = Printf.sprintf "cryptfs:%s:%s" l.l_name lower.Sp_core.File.f_id;
          e_lower = lower;
          e_state = Sp_coherency.Mrsw.create ();
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
          ~set_attr_len:(fun len -> if len > lower_len e then set_len l e len)
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

let make ?(node = "local") ?domain ~vmm ~name ~key () =
  let domain =
    match domain with Some d -> d | None -> Sp_obj.Sdomain.create ~node name
  in
  let l =
    {
      l_name = name;
      l_domain = domain;
      l_vmm = vmm;
      l_cipher_key = key;
      l_lower = None;
      l_channels = Sp_vm.Pager_lib.create ();
      l_wrapped = Hashtbl.create 16;
    }
  in
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
    sfs_type = "cryptfs";
    sfs_domain = domain;
    sfs_ctx = exported_ctx;
    sfs_stack_on =
      (fun under ->
        match l.l_lower with
        | Some _ ->
            raise
              (Sp_core.Stackable.Stack_error
                 (name ^ ": cryptfs stacks on exactly one file system"))
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
              ~key:(Printf.sprintf "cryptfs:%s:%s" l.l_name lf.Sp_core.File.f_id);
            Hashtbl.remove l.l_wrapped lf.Sp_core.File.f_id
        | exception _ -> ());
        Sp_core.Stackable.remove lower path);
    sfs_sync =
      (fun () ->
        Hashtbl.iter (fun _ (_, f) -> Sp_core.File.sync f) l.l_wrapped;
        Sp_core.Stackable.sync (lower_of l));
    sfs_drop_caches = (fun () -> Sp_core.Stackable.drop_caches (lower_of l));
  }

let creator ?(node = "local") ~vmm ~key () =
  {
    Sp_core.Stackable.cr_type = "cryptfs";
    cr_create = (fun ~name -> make ~node ~vmm ~name ~key ());
  }
