type t = { overlay : Context.t; view : Context.t }

let create ~shared ~domain =
  let overlay =
    Context.make ~domain ~label:(Sp_obj.Sdomain.name domain ^ ":overlay") ()
  in
  let resolve1 component =
    match overlay.Context.ctx_resolve1 component with
    | o -> o
    | exception Context.Unbound _ -> shared.Context.ctx_resolve1 component
  in
  let list () =
    let merged = overlay.Context.ctx_list () @ shared.Context.ctx_list () in
    List.sort_uniq String.compare merged
  in
  let view =
    {
      Context.ctx_domain = domain;
      ctx_label = Sp_obj.Sdomain.name domain ^ ":ns";
      ctx_acl = shared.Context.ctx_acl;
      ctx_set_acl = shared.Context.ctx_set_acl;
      ctx_resolve1 = resolve1;
      ctx_bind1 = overlay.Context.ctx_bind1;
      ctx_rebind1 = overlay.Context.ctx_rebind1;
      ctx_unbind1 = overlay.Context.ctx_unbind1;
      ctx_list = list;
      ctx_readdir1 = (fun ~cookie ~limit -> Sp_dir.Cursor.of_list (list ()) ~cookie ~limit);
    }
  in
  { overlay; view }

let as_context t = t.view

let customize t name o =
  match Sname.components name with
  | [ single ] -> t.overlay.Context.ctx_bind1 single o
  | _ -> Context.bind t.view name o
