module V = Vm_types

type 'file t = {
  file : 'file;
  stat : 'file -> Attr.t;
  store : 'file -> Attr.t -> unit;
  upper : Pager_lib.t;
  key : string;
  mutable lower : (V.pager_object * V.fs_pager_ops) option;
  mutable attr : Attr.t option;
  mutable dirty : bool;
}

(* The upper registry of a layer that serves no upper managers: nothing
   ever binds to it, so its recall and invalidate walk no channel. *)
let no_upper = Pager_lib.create ()

let create ?upper ~stat ~store file =
  let upper, key =
    match upper with Some (chs, key) -> (chs, key) | None -> (no_upper, "")
  in
  { file; stat; store; upper; key; lower = None; attr = None; dirty = false }

let connect t pager =
  t.lower <- Option.map (fun ops -> (pager, ops)) (V.narrow_fs_pager pager)

(* The pager half walks the upper channels in plain loops that allocate
   nothing: every read touches atime, so this runs on each op.

   [recall t won chs] installs each dirty copy surrendered, in ascending
   channel order so the last one wins, and returns the winner's channel
   id ([won] if none surrendered one). *)
let rec recall t won = function
  | [] -> won
  | ch :: rest ->
      let won =
        match V.narrow_fs_cache ch.Pager_lib.ch_cache with
        | None -> won
        | Some ops -> (
            match V.fs_write_back_attr ch.Pager_lib.ch_cache ops with
            | Some a ->
                t.attr <- Some a;
                t.dirty <- true;
                ch.Pager_lib.ch_id
            | None -> won)
      in
      recall t won rest

let rec invalidate ~except = function
  | [] -> ()
  | ch :: rest ->
      (if ch.Pager_lib.ch_id <> except then
         match V.narrow_fs_cache ch.Pager_lib.ch_cache with
         | Some ops -> V.fs_invalidate_attr ch.Pager_lib.ch_cache ops
         | None -> ());
      invalidate ~except rest

let invalidate_upper t ~except =
  invalidate ~except (Pager_lib.live_channels_for_key t.upper ~key:t.key)

(* An upper manager stacked on us may hold newer times or length, exactly
   as it may hold newer page data: recall them before trusting our copy.
   A recalled copy that changes ours makes every other upper copy stale. *)
let recall_upper t =
  let before = t.attr in
  let won = recall t (-1) (Pager_lib.live_channels_for_key t.upper ~key:t.key) in
  if won >= 0 then
    match (before, t.attr) with
    | Some b, Some a when Attr.equal b a -> ()
    | _ -> invalidate_upper t ~except:won

let fetch t =
  recall_upper t;
  match t.attr with
  | Some a -> a
  | None ->
      let a =
        match t.lower with
        | Some (pager, ops) -> V.fs_get_attr pager ops
        | None -> t.stat t.file
      in
      t.attr <- Some a;
      t.dirty <- false;
      a

let install t ~except old a =
  if not (Attr.equal old a) then begin
    t.attr <- Some a;
    t.dirty <- true;
    invalidate_upper t ~except
  end

let update t f =
  let a = fetch t in
  install t ~except:(-1) a (f a)

let set t a = install t ~except:(-1) (fetch t) a

let sync_down t =
  if t.dirty then begin
    (match (t.attr, t.lower) with
    | Some a, Some (pager, ops) -> V.fs_attr_sync pager ops a
    | Some a, None -> t.store t.file a
    | None, _ -> ());
    t.dirty <- false
  end

let drop t =
  t.attr <- None;
  t.dirty <- false

let cached t = Option.is_some t.attr

let fs_cache t =
  V.Fs_cache
    {
      V.fc_invalidate_attr =
        (fun () ->
          drop t;
          invalidate_upper t ~except:(-1));
      fc_write_back_attr =
        (fun () ->
          (* Transitive, as page write-back is: our own upper managers may
             hold a newer copy than ours. *)
          recall_upper t;
          if t.dirty then begin
            t.dirty <- false;
            t.attr
          end
          else None);
      fc_populate_attr =
        (fun a ->
          t.attr <- Some a;
          t.dirty <- false);
    }

let fs_pager t ~id =
  let from_upper a = install t ~except:id (fetch t) a in
  {
    V.fp_get_attr = (fun () -> fetch t);
    fp_set_attr = from_upper;
    fp_attr_sync = from_upper;
  }
