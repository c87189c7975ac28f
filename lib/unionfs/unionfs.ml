module V = Sp_vm.Vm_types

let whiteout_prefix = ".wh."

type layer = {
  l_name : string;
  l_domain : Sp_obj.Sdomain.t;
  l_vmm : Sp_vm.Vmm.t;
  mutable l_top : Sp_core.Stackable.t option;  (* writable branch *)
  mutable l_lowers : Sp_core.Stackable.t list;  (* read-only branches *)
  l_channels : Sp_vm.Pager_lib.t;
  l_wrapped : (string, Sp_core.File.t) Hashtbl.t;  (* by full path *)
}

type Sp_obj.Exten.t += Layer of layer

let layer_of =
  Sp_core.Stackable.narrow ~what:"a unionfs layer" (function
    | Layer l -> Some l
    | _ -> None)

let top_of l =
  match l.l_top with
  | Some fs -> fs
  | None -> raise (Sp_core.Stackable.Stack_error (l.l_name ^ ": not stacked yet"))

let is_whiteout name =
  String.length name >= String.length whiteout_prefix
  && String.sub name 0 (String.length whiteout_prefix) = whiteout_prefix

let whiteout_path path =
  match List.rev (Sp_naming.Sname.components path) with
  | [] -> invalid_arg "Unionfs: empty path"
  | last :: rev_dirs ->
      Sp_naming.Sname.of_components (List.rev ((whiteout_prefix ^ last) :: rev_dirs))

let exists fs path =
  match Sp_naming.Context.resolve fs.Sp_core.Stackable.sfs_ctx path with
  | _ -> true
  | exception Sp_naming.Context.Unbound _ -> false
  | exception Sp_core.Fserr.No_such_file _ -> false

let resolve_opt fs path =
  match Sp_naming.Context.resolve fs.Sp_core.Stackable.sfs_ctx path with
  | o -> Some o
  | exception Sp_naming.Context.Unbound _ -> None
  | exception Sp_core.Fserr.No_such_file _ -> None

let whited_out l path = exists (top_of l) (whiteout_path path)

(* First branch (top first, then lowers in stacking order) binding [path]. *)
let find_backing l path =
  let branches = top_of l :: l.l_lowers in
  let rec go idx = function
    | [] -> None
    | fs :: rest -> (
        match resolve_opt fs path with
        | Some obj -> Some (idx, fs, obj)
        | None -> go (idx + 1) rest)
  in
  if whited_out l path then None else go 0 branches

(* Create the directory chain of [path]'s parent in the top branch. *)
let mkdir_p_top l path =
  let top = top_of l in
  let rec go prefix = function
    | [] | [ _ ] -> ()
    | d :: rest ->
        let here = Sp_naming.Sname.append prefix d in
        (match Sp_core.Stackable.mkdir top here with
        | () -> ()
        | exception Sp_core.Fserr.Already_exists _ -> ());
        go here rest
  in
  go (Sp_naming.Sname.of_components []) (Sp_naming.Sname.components path)

(* ------------------------------------------------------------------ *)
(* Union files with copy-up                                            *)
(* ------------------------------------------------------------------ *)

type ufile = {
  u_key : string;
  u_path : Sp_naming.Sname.t;
  mutable u_backing : Sp_core.File.t;
  mutable u_in_top : bool;
  u_state : Sp_coherency.Mrsw.t;
}

let copy_up l u =
  if not u.u_in_top then begin
    let top = top_of l in
    mkdir_p_top l u.u_path;
    let data = Sp_core.File.read_all u.u_backing in
    let fresh = Sp_core.Stackable.create top u.u_path in
    if Bytes.length data > 0 then ignore (Sp_core.File.write fresh ~pos:0 data);
    u.u_backing <- fresh;
    u.u_in_top <- true
  end

let backing_len u = (Sp_core.File.stat u.u_backing).Sp_vm.Attr.len

(* Copy up, clip to the backing length and write. *)
let store l u ~retain:_ ~offset data =
  copy_up l u;
  let len = backing_len u in
  let keep = min (Bytes.length data) (max 0 (len - offset)) in
  if keep > 0 then
    ignore (Sp_core.File.write u.u_backing ~pos:offset (Bytes.sub data 0 keep))

let truncate_ufile l u len =
  copy_up l u;
  Sp_coherency.Mrsw.shrink u.u_state ~channels:l.l_channels ~key:u.u_key ~old:(backing_len u)
    ~len ~write_down:(fun x ->
      ignore (Sp_core.File.write u.u_backing ~pos:x.V.ext_offset x.V.ext_data));
  Sp_core.File.truncate u.u_backing len

let file_key l path =
  Printf.sprintf "unionfs:%s:%s" l.l_name (Sp_naming.Sname.to_string path)

let wrap_file l path ~in_top (backing : Sp_core.File.t) =
  let key = file_key l path in
  match Hashtbl.find_opt l.l_wrapped key with
  | Some f -> f
  | None ->
      let u =
        {
          u_key = key;
          u_path = path;
          u_backing = backing;
          u_in_top = in_top;
          u_state = Sp_coherency.Mrsw.create ();
        }
      in
      let stat () = Sp_core.File.stat u.u_backing in
      let set_attr a =
        copy_up l u;
        Sp_core.File.set_attr u.u_backing a
      in
      let fs_pager =
        {
          V.fp_get_attr = stat;
          fp_set_attr = set_attr;
          fp_attr_sync =
            (fun a ->
              copy_up l u;
              V.set_length u.u_backing.Sp_core.File.f_mem a.Sp_vm.Attr.len;
              Sp_core.File.set_attr u.u_backing a);
        }
      in
      let f =
        Sp_coherency.Mrsw.export_file ~vmm:l.l_vmm ~domain:l.l_domain
          ~channels:l.l_channels ~key
          ~produce:(fun ~offset ~size ~access:_ ->
            Sp_core.File.read_padded u.u_backing ~pos:offset ~len:size)
          ~store:(store l u)
          ~fs_pager:(fun ~id:_ -> fs_pager)
          ~stat
          ~length:(fun () -> backing_len u)
          ~set_attr
          ~grow:(fun len ->
            copy_up l u;
            if len > backing_len u then V.set_length u.u_backing.Sp_core.File.f_mem len)
          ~truncate:(truncate_ufile l u)
          ~sync:(fun () -> Sp_core.File.sync u.u_backing)
          u.u_state
      in
      let write = f.Sp_core.File.f_write in
      let f =
        {
          f with
          f_write =
            (fun ~pos data ->
              copy_up l u;
              write ~pos data);
        }
      in
      Hashtbl.replace l.l_wrapped key f;
      f

(* ------------------------------------------------------------------ *)
(* The union naming context                                            *)
(* ------------------------------------------------------------------ *)

let rec make_ctx l ~path =
  let label =
    if Sp_naming.Sname.is_empty path then l.l_name
    else l.l_name ^ "/" ^ Sp_naming.Sname.to_string path
  in
  let resolve1 component =
    if is_whiteout component then
      raise (Sp_naming.Context.Unbound (label ^ "/" ^ component));
    let sub = Sp_naming.Sname.append path component in
    match find_backing l sub with
    | None -> raise (Sp_naming.Context.Unbound (label ^ "/" ^ component))
    | Some (_, _, Sp_naming.Context.Context _) ->
        Sp_naming.Context.Context (make_ctx l ~path:sub)
    | Some (idx, _, Sp_core.File.File f) ->
        Sp_sim.Simclock.advance (Sp_sim.Cost_model.current ()).open_state_ns;
        Sp_core.File.File (wrap_file l sub ~in_top:(idx = 0) f)
    | Some (_, _, other) -> other
  in
  (* Streaming union merge.  The cookie encodes (branch, sub-cookie):
     branch index in the high bits, the branch's own readdir cookie in
     the low 36.  A name from branch [idx] is visible unless it is a
     whiteout, whited out from the top, or shadowed by (present in) an
     earlier branch — the earlier branch's scan already emitted it, so
     probing gives exact-once without cross-batch state. *)
  let branch_stride = 0x10_0000_0000 in
  let readdir1 ~cookie ~limit =
    let branches = Array.of_list (top_of l :: l.l_lowers) in
    let nbranches = Array.length branches in
    let visible idx name =
      (not (is_whiteout name))
      && (not (whited_out l (Sp_naming.Sname.append path name)))
      &&
      let rec shadowed i =
        i < idx
        && (resolve_opt branches.(i) (Sp_naming.Sname.append path name) <> None
           || shadowed (i + 1))
      in
      not (shadowed 0)
    in
    let rec scan idx sub =
      let names, next_sub =
        Sp_core.Stackable.readdir branches.(idx) path ~cookie:sub ~limit
      in
      let names = List.filter (visible idx) names in
      match next_sub with
      | Some s -> (names, Some ((idx * branch_stride) + s))
      | None ->
          (* Branch exhausted: hand the cursor to the next branch.  The
             batch may be short or empty — consumers key on the cookie. *)
          if idx + 1 >= nbranches then (names, None)
          else (names, Some ((idx + 1) * branch_stride))
    and start_at idx =
      if idx >= nbranches then ([], None)
      else
        match resolve_opt branches.(idx) path with
        | Some (Sp_naming.Context.Context _) -> scan idx 0
        | _ -> start_at (idx + 1)
    in
    let idx = cookie / branch_stride and sub = cookie mod branch_stride in
    if idx >= nbranches then ([], None)
    else if sub = 0 then start_at idx
    else scan idx sub
  in
  let list () =
    List.sort_uniq String.compare
      (Sp_dir.Cursor.drain (fun ~cookie ~limit -> readdir1 ~cookie ~limit))
  in
  {
    Sp_naming.Context.ctx_domain = l.l_domain;
    ctx_label = label;
    ctx_acl = (fun () -> Sp_naming.Acl.open_acl);
    ctx_set_acl = (fun _ -> ());
    ctx_resolve1 = resolve1;
    ctx_bind1 = (fun _ _ -> invalid_arg (label ^ ": bind files via create"));
    ctx_rebind1 = (fun _ _ -> invalid_arg (label ^ ": rebind unsupported"));
    ctx_unbind1 = (fun _ -> invalid_arg (label ^ ": unbind via remove"));
    ctx_list = list;
    ctx_readdir1 = readdir1;
  }

(* ------------------------------------------------------------------ *)
(* The stackable layer                                                 *)
(* ------------------------------------------------------------------ *)

let make ?(node = "local") ?domain ~vmm ~name () =
  let domain =
    match domain with Some d -> d | None -> Sp_obj.Sdomain.create ~node name
  in
  let l =
    {
      l_name = name;
      l_domain = domain;
      l_vmm = vmm;
      l_top = None;
      l_lowers = [];
      l_channels = Sp_vm.Pager_lib.create ();
      l_wrapped = Hashtbl.create 16;
    }
  in
  {
    Sp_core.Stackable.sfs_name = name;
    sfs_type = "unionfs";
    sfs_domain = domain;
    sfs_ctx = make_ctx l ~path:(Sp_naming.Sname.of_components []);
    sfs_stack_on =
      (fun under ->
        match l.l_top with
        | None -> l.l_top <- Some under
        | Some _ -> l.l_lowers <- l.l_lowers @ [ under ]);
    sfs_unders = (fun () -> top_of l :: l.l_lowers);
    sfs_create =
      (fun path ->
        if find_backing l path <> None then
          raise (Sp_core.Fserr.Already_exists (Sp_naming.Sname.to_string path));
        let top = top_of l in
        mkdir_p_top l path;
        (* Creating a name drops any whiteout hiding it. *)
        (match Sp_core.Stackable.remove top (whiteout_path path) with
        | () -> ()
        | exception Sp_core.Fserr.No_such_file _ -> ()
        | exception Sp_naming.Context.Unbound _ -> ());
        let f = Sp_core.Stackable.create top path in
        wrap_file l path ~in_top:true f);
    sfs_mkdir =
      (fun path ->
        mkdir_p_top l path;
        match Sp_core.Stackable.mkdir (top_of l) path with
        | () -> ()
        | exception Sp_core.Fserr.Already_exists _ -> ());
    sfs_remove =
      (fun path ->
        let top = top_of l in
        let in_lower =
          List.exists (fun fs -> exists fs path) l.l_lowers
        in
        if (not in_lower) && not (exists top path) then
          raise (Sp_core.Fserr.No_such_file (Sp_naming.Sname.to_string path));
        (match Sp_core.Stackable.remove top path with
        | () -> ()
        | exception Sp_core.Fserr.No_such_file _ -> ()
        | exception Sp_naming.Context.Unbound _ -> ());
        if in_lower then begin
          mkdir_p_top l path;
          ignore (Sp_core.Stackable.create top (whiteout_path path))
        end;
        let key = file_key l path in
        Sp_vm.Pager_lib.destroy_key l.l_channels ~key;
        Hashtbl.remove l.l_wrapped key);
    sfs_sync = (fun () -> Sp_core.Stackable.sync (top_of l));
    sfs_drop_caches =
      (fun () ->
        Sp_core.Stackable.drop_caches (top_of l);
        List.iter Sp_core.Stackable.drop_caches l.l_lowers);
    sfs_exten = [ Layer l ];
  }

let creator ?(node = "local") ~vmm () =
  {
    Sp_core.Stackable.cr_type = "unionfs";
    cr_create = (fun ~name -> make ~node ~vmm ~name ());
  }

let branch_of sfs path =
  let l = layer_of sfs in
  (* A copied-up file is in the top branch even if the wrapper was first
     created from a lower branch. *)
  if exists (top_of l) path then `Top
  else
    let rec go i = function
      | [] -> raise (Sp_core.Fserr.No_such_file (Sp_naming.Sname.to_string path))
      | fs :: rest -> if exists fs path then `Lower i else go (i + 1) rest
    in
    go 0 l.l_lowers
