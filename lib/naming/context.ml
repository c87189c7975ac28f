type obj = ..

type t = {
  ctx_domain : Sp_obj.Sdomain.t;
  ctx_label : string;
  ctx_acl : unit -> Acl.t;
  ctx_set_acl : Acl.t -> unit;
  ctx_resolve1 : string -> obj;
  ctx_bind1 : string -> obj -> unit;
  ctx_rebind1 : string -> obj -> unit;
  ctx_unbind1 : string -> unit;
  ctx_list : unit -> string list;
  ctx_readdir1 : cookie:int -> limit:int -> string list * int option;
}

type obj += Context of t

exception Unbound of string
exception Already_bound of string
exception Denied of string

let make ~domain ~label ?(acl = Acl.open_acl) () =
  let table : (string, obj) Hashtbl.t = Hashtbl.create 16 in
  let acl_ref = ref acl in
  let resolve1 component =
    match Hashtbl.find_opt table component with
    | Some o -> o
    | None -> raise (Unbound (label ^ "/" ^ component))
  in
  let bind1 component o =
    if Hashtbl.mem table component then
      raise (Already_bound (label ^ "/" ^ component))
    else Hashtbl.replace table component o
  in
  let rebind1 component o = Hashtbl.replace table component o in
  let unbind1 component =
    if Hashtbl.mem table component then Hashtbl.remove table component
    else raise (Unbound (label ^ "/" ^ component))
  in
  let list () = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) table []) in
  let readdir1 ~cookie ~limit = Sp_dir.Cursor.of_list (list ()) ~cookie ~limit in
  {
    ctx_domain = domain;
    ctx_label = label;
    ctx_acl = (fun () -> !acl_ref);
    ctx_set_acl = (fun a -> acl_ref := a);
    ctx_resolve1 = resolve1;
    ctx_bind1 = bind1;
    ctx_rebind1 = rebind1;
    ctx_unbind1 = unbind1;
    ctx_list = list;
    ctx_readdir1 = readdir1;
  }

let forward ~domain ~label target =
  {
    ctx_domain = domain;
    ctx_label = label;
    ctx_acl = (fun () -> Acl.open_acl);
    ctx_set_acl = (fun _ -> ());
    ctx_resolve1 = (fun c -> (target ()).ctx_resolve1 c);
    ctx_bind1 = (fun c o -> (target ()).ctx_bind1 c o);
    ctx_rebind1 = (fun c o -> (target ()).ctx_rebind1 c o);
    ctx_unbind1 = (fun c -> (target ()).ctx_unbind1 c);
    ctx_list = (fun () -> (target ()).ctx_list ());
    ctx_readdir1 = (fun ~cookie ~limit -> (target ()).ctx_readdir1 ~cookie ~limit);
  }

let check ctx ~principal perm =
  if not (Acl.permits (ctx.ctx_acl ()) ~principal perm) then
    raise
      (Denied
         (Format.asprintf "%s: %s denied %a" ctx.ctx_label principal
            Acl.pp_permission perm))

(* Walk all but the last component, returning the context serving the last
   component together with that component. *)
let rec walk ~principal ctx name =
  match Sname.split name with
  | None -> invalid_arg "Context.walk: empty name"
  | Some (component, rest) when Sname.is_empty rest -> (ctx, component)
  | Some (component, rest) -> (
      let child =
        Sp_obj.Door.call ~op:"name.resolve" ctx.ctx_domain (fun () ->
            check ctx ~principal Acl.Resolve;
            ctx.ctx_resolve1 component)
      in
      match child with
      | Context c -> walk ~principal c rest
      | _ -> raise (Unbound (ctx.ctx_label ^ "/" ^ component ^ ": not a context")))

let resolve ?(principal = "user") ctx name =
  if Sname.is_empty name then Context ctx
  else
    let parent, last = walk ~principal ctx name in
    Sp_obj.Door.call ~op:"name.resolve" parent.ctx_domain (fun () ->
        check parent ~principal Acl.Resolve;
        parent.ctx_resolve1 last)

let resolve_context ?principal ctx name =
  match resolve ?principal ctx name with
  | Context c -> c
  | _ -> raise (Unbound (Sname.to_string name ^ ": not a context"))

let bind ?(principal = "user") ctx name o =
  let parent, last = walk ~principal ctx name in
  Sp_obj.Door.call ~op:"name.bind" parent.ctx_domain (fun () ->
      check parent ~principal Acl.Bind;
      parent.ctx_bind1 last o);
  Name_coherence.note_change last

let rebind ?(principal = "user") ctx name o =
  let parent, last = walk ~principal ctx name in
  Sp_obj.Door.call ~op:"name.rebind" parent.ctx_domain (fun () ->
      check parent ~principal Acl.Bind;
      parent.ctx_rebind1 last o);
  Name_coherence.note_change last

let unbind ?(principal = "user") ctx name =
  let parent, last = walk ~principal ctx name in
  Sp_obj.Door.call ~op:"name.unbind" parent.ctx_domain (fun () ->
      check parent ~principal Acl.Unbind;
      parent.ctx_unbind1 last);
  Name_coherence.note_change last

let list ?(principal = "user") ctx name =
  match resolve ?principal:(Some principal) ctx name with
  | Context c ->
      Sp_obj.Door.call ~op:"name.list" c.ctx_domain (fun () ->
          check c ~principal Acl.Resolve;
          c.ctx_list ())
  | _ -> raise (Unbound (Sname.to_string name ^ ": not a context"))

(* One bounded readdir batch.  Each batch re-resolves [name] and pays
   one door crossing, so a long scan costs O(entries / limit) calls —
   never a whole-directory materialisation on either side. *)
let readdir ?(principal = "user") ctx name ~cookie ~limit =
  match resolve ~principal ctx name with
  | Context c ->
      Sp_obj.Door.call ~op:"name.readdir" c.ctx_domain (fun () ->
          check c ~principal Acl.Resolve;
          c.ctx_readdir1 ~cookie ~limit)
  | _ -> raise (Unbound (Sname.to_string name ^ ": not a context"))

let mkdir_path ?(principal = "user") ctx name ~domain =
  let rec go ctx name =
    match Sname.split name with
    | None -> ctx
    | Some (component, rest) ->
        let child =
          Sp_obj.Door.call ~op:"name.mkdir" ctx.ctx_domain (fun () ->
              check ctx ~principal Acl.Resolve;
              match ctx.ctx_resolve1 component with
              | o -> o
              | exception Unbound _ ->
                  let fresh =
                    make ~domain ~label:(ctx.ctx_label ^ "/" ^ component) ()
                  in
                  check ctx ~principal Acl.Bind;
                  ctx.ctx_bind1 component (Context fresh);
                  Context fresh)
        in
        (match child with
        | Context c -> go c rest
        | _ ->
            raise (Unbound (ctx.ctx_label ^ "/" ^ component ^ ": not a context")))
  in
  go ctx name
