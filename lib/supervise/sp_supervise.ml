module S = Sp_core.Stackable

exception Give_up of string

type level = {
  lv_name : string;
  lv_build : lower:S.t option -> S.t;
}

let level ~name build = { lv_name = name; lv_build = build }

type entry = {
  e_level : level;
  mutable e_cur : S.t;
  mutable e_restarts : int;
}

type t = {
  s_name : string;
  s_budget : int;
  s_backoff_ns : int;
  s_rebind : (Sp_naming.Context.t * Sp_naming.Sname.t) option;
  s_base : S.t option;
  s_entries : entry array;
  mutable s_restarts : int;
  mutable s_proxy : S.t option;
  (* A restart is in flight: under [Sp_sched] the backoff sleep and the
     rebuild suspend, so other client tasks run mid-restart.  They must
     not start a second rebuild of the same stack — [restart] bounces
     them with [Dead_domain] and their retry policy backs off. *)
  mutable s_restarting : bool;
}

(* Domain name -> owning supervisor.  Keyed by name because
   [Dead_domain] carries only the domain name, and a layer's serving
   domain is named after its instance: the name is the join point
   between the raised exception and the restart recipe of every
   incarnation.  Level names must therefore be globally unique. *)
let registry : (string, t) Hashtbl.t = Hashtbl.create 8

let register_entry t e =
  Hashtbl.replace registry (Sp_obj.Sdomain.name e.e_cur.S.sfs_domain) t;
  if e.e_cur.S.sfs_name <> Sp_obj.Sdomain.name e.e_cur.S.sfs_domain then
    Hashtbl.replace registry e.e_cur.S.sfs_name t

let unsupervise t =
  Array.iter
    (fun e ->
      Hashtbl.remove registry (Sp_obj.Sdomain.name e.e_cur.S.sfs_domain);
      Hashtbl.remove registry e.e_cur.S.sfs_name)
    t.s_entries

let top t = t.s_entries.(Array.length t.s_entries - 1).e_cur

let entry_named t name =
  Array.fold_left
    (fun acc e ->
      if
        e.e_level.lv_name = name
        || Sp_obj.Sdomain.name e.e_cur.S.sfs_domain = name
      then Some e
      else acc)
    None t.s_entries

let current t name =
  match entry_named t name with
  | Some e -> e.e_cur
  | None -> invalid_arg (t.s_name ^ ": no supervised level named " ^ name)

let restarts t = t.s_restarts
let level_restarts t name = (Option.get (entry_named t name)).e_restarts

let kill t name = Sp_obj.Sdomain.kill (current t name).S.sfs_domain

let scan_lowest_dead t =
  let n = Array.length t.s_entries in
  let lowest = ref n in
  for i = n - 1 downto 0 do
    if not (Sp_obj.Sdomain.alive t.s_entries.(i).e_cur.S.sfs_domain) then
      lowest := i
  done;
  !lowest

(* Restart from the lowest dead level up (rest-for-one): layers above a
   restarted layer hold closures over the dead incarnation, and stacks
   cannot be re-stacked in place, so everything from the dead level to the
   top is killed and rebuilt bottom-up on the still-live lower layer. *)
let restart t =
  let n = Array.length t.s_entries in
  let i0 = scan_lowest_dead t in
  if i0 < n then begin
    let e = t.s_entries.(i0) in
    if t.s_restarting then
      (* Another task is already mid-restart of this stack (asleep in the
         backoff or rebuilding).  Don't double-rebuild: bounce the caller
         with [Dead_domain] so its retry policy backs off until the
         in-flight restart lands. *)
      raise (Sp_obj.Sdomain.Dead_domain e.e_level.lv_name);
    if e.e_restarts >= t.s_budget then begin
      raise
        (Give_up
           (Printf.sprintf "%s: restart budget (%d) exhausted for level %s"
              t.s_name t.s_budget e.e_level.lv_name))
    end;
    t.s_restarting <- true;
    Fun.protect
      ~finally:(fun () -> t.s_restarting <- false)
      (fun () ->
        (* Deterministic exponential backoff.  Idle, not busy: under a
           scheduler [sleep] lets other client tasks run through the
           restart window (they hit the [s_restarting] fence above);
           outside a run it just advances the clock as before. *)
        Sp_sched.sleep (t.s_backoff_ns * (1 lsl min e.e_restarts 16));
        (* More levels may have died while we slept. *)
        let i = min i0 (scan_lowest_dead t) in
        for j = i to n - 1 do
          (* Fence every level from the dead one up: stale references to
             these incarnations (cached file handles, pager channels) must
             fail or be fenced, never reach a half-connected stack. *)
          Sp_obj.Sdomain.kill t.s_entries.(j).e_cur.S.sfs_domain
        done;
        for j = i to n - 1 do
          let ej = t.s_entries.(j) in
          let lower =
            if j = 0 then t.s_base else Some t.s_entries.(j - 1).e_cur
          in
          ej.e_cur <- ej.e_level.lv_build ~lower;
          ej.e_restarts <- ej.e_restarts + 1;
          t.s_restarts <- t.s_restarts + 1;
          register_entry t ej;
          if Sp_trace.enabled () then
            Sp_trace.instant ~name:"supervise.restart"
              ~args:
                [
                  ("supervisor", t.s_name);
                  ("level", ej.e_level.lv_name);
                  ("incarnation", string_of_int (ej.e_restarts + 1));
                ]
              ()
        done;
        (* Incarnation fence: name caches may hold objects minted by the
           dead incarnations; bump the coherence epoch so every
           pre-restart entry misses instead of handing out a dead door. *)
        Sp_naming.Name_coherence.fence ();
        match t.s_rebind with
        | Some (ctx, sname) ->
            Sp_naming.Context.rebind ctx sname (S.Fs (top t))
        | None -> ())
  end

let call f =
  let rec go stale_retries =
    try f ()
    with Sp_obj.Sdomain.Dead_domain who as e -> (
      match Hashtbl.find_opt registry who with
      | None -> raise e
      | Some t ->
          let cur_alive =
            match entry_named t who with
            | Some entry -> Sp_obj.Sdomain.alive entry.e_cur.S.sfs_domain
            | None -> false
          in
          if cur_alive then
            (* The current incarnation is healthy: the caller tripped over
               a stale reference to a pre-restart incarnation.  Retry once
               so callers that re-resolve can recover; a second trip means
               the caller pinned the dead object and no restart will fix
               it. *)
            if stale_retries > 0 then go (stale_retries - 1) else raise e
          else begin
            restart t;
            go stale_retries
          end)
  in
  go 1

(* ------------------------------------------------------------------ *)
(* The supervised handle                                               *)
(* ------------------------------------------------------------------ *)

(* A proxy stackable served by its own (never-killed) supervisor domain.
   Every operation re-resolves the current top incarnation inside
   [call], so a [Dead_domain] raised anywhere below turns into a restart
   plus a transparent retry.  Naming operations are forwarded through
   the door of the real context so accounting and liveness checks are
   identical to direct use. *)
let make_proxy t =
  let domain = Sp_obj.Sdomain.create (t.s_name ^ ".supervisor") in
  let cur () = top t in
  let ctx_op opname f =
    call (fun () ->
        let c = (cur ()).S.sfs_ctx in
        Sp_obj.Door.call ~op:opname c.Sp_naming.Context.ctx_domain (fun () ->
            f c))
  in
  let ctx =
    {
      Sp_naming.Context.ctx_domain = domain;
      ctx_label = t.s_name;
      ctx_acl =
        (fun () -> (cur ()).S.sfs_ctx.Sp_naming.Context.ctx_acl ());
      ctx_set_acl =
        (fun a -> (cur ()).S.sfs_ctx.Sp_naming.Context.ctx_set_acl a);
      ctx_resolve1 =
        (fun comp ->
          ctx_op "name.resolve" (fun c ->
              c.Sp_naming.Context.ctx_resolve1 comp));
      ctx_bind1 =
        (fun comp o ->
          ctx_op "name.bind" (fun c -> c.Sp_naming.Context.ctx_bind1 comp o));
      ctx_rebind1 =
        (fun comp o ->
          ctx_op "name.rebind" (fun c ->
              c.Sp_naming.Context.ctx_rebind1 comp o));
      ctx_unbind1 =
        (fun comp ->
          ctx_op "name.unbind" (fun c -> c.Sp_naming.Context.ctx_unbind1 comp));
      ctx_list =
        (fun () -> ctx_op "name.list" (fun c -> c.Sp_naming.Context.ctx_list ()));
      ctx_readdir1 =
        (fun ~cookie ~limit ->
          ctx_op "name.readdir" (fun c ->
              c.Sp_naming.Context.ctx_readdir1 ~cookie ~limit));
    }
  in
  {
    S.sfs_name = t.s_name;
    sfs_type = "supervised";
    sfs_domain = domain;
    sfs_ctx = ctx;
    sfs_stack_on =
      (fun _ ->
        raise
          (S.Stack_error
             (t.s_name ^ ": a supervised stack is built from its recipe")));
    sfs_unders = (fun () -> Option.to_list t.s_base);
    sfs_create = (fun path -> call (fun () -> S.create (cur ()) path));
    sfs_mkdir = (fun path -> call (fun () -> S.mkdir (cur ()) path));
    sfs_remove = (fun path -> call (fun () -> S.remove (cur ()) path));
    sfs_sync = (fun () -> call (fun () -> S.sync (cur ())));
    sfs_drop_caches = (fun () -> call (fun () -> S.drop_caches (cur ())));
    sfs_exten = [];
  }

let handle t =
  match t.s_proxy with
  | Some p -> p
  | None ->
      let p = make_proxy t in
      t.s_proxy <- Some p;
      p

let supervise ?(budget = 8) ?(backoff_ns = 1_000_000) ?rebind ?base ~name
    levels =
  if levels = [] then invalid_arg "Sp_supervise.supervise: no levels";
  let build_one lower lv = lv.lv_build ~lower in
  let entries =
    let lower = ref base in
    List.map
      (fun lv ->
        let cur = build_one !lower lv in
        lower := Some cur;
        { e_level = lv; e_cur = cur; e_restarts = 0 })
      levels
  in
  let t =
    {
      s_name = name;
      s_budget = budget;
      s_backoff_ns = backoff_ns;
      s_rebind = rebind;
      s_base = base;
      s_entries = Array.of_list entries;
      s_restarts = 0;
      s_proxy = None;
      s_restarting = false;
    }
  in
  Array.iter (register_entry t) t.s_entries;
  (match rebind with
  | Some (ctx, sname) -> Sp_naming.Context.rebind ctx sname (S.Fs (top t))
  | None -> ());
  t
