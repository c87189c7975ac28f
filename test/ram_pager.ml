(* A simple storage pager for tests: the plain pager-object
   functionality over a growable in-memory backing store — the kind of
   pager §4.3 has in mind when a file system's narrow to [fs_pager]
   fails.  [peek] and [poke] read and write the backing store directly
   (no doors, no cache); [channels] lists the channels established with
   cache managers. *)

open Sp_vm

type t = {
  label : string;
  domain : Sp_obj.Sdomain.t;
  mutable store : bytes;
  mutable len : int;
  registry : Pager_lib.t;
}

let create ?(node = "local") ~label () =
  {
    label;
    domain = Sp_obj.Sdomain.create ~node ("rampager:" ^ label);
    store = Bytes.create 0;
    len = 0;
    registry = Pager_lib.create ();
  }

let grow t target =
  if target > Bytes.length t.store then begin
    let fresh = Bytes.make (max target (2 * Bytes.length t.store)) '\000' in
    Bytes.blit t.store 0 fresh 0 t.len;
    t.store <- fresh
  end;
  if target > t.len then t.len <- target

let peek t ~pos ~len =
  let out = Bytes.make len '\000' in
  let available = max 0 (min len (t.len - pos)) in
  if available > 0 then Bytes.blit t.store pos out 0 available;
  out

let poke t ~pos data =
  grow t (pos + Bytes.length data);
  Bytes.blit data 0 t.store pos (Bytes.length data)

let make_pager t =
  let write ~offset data = poke t ~pos:offset data in
  {
    Vm_types.p_domain = t.domain;
    p_label = t.label;
    p_page_in =
      (fun ~offset ~size ~access:_ -> peek t ~pos:offset ~len:size);
    p_page_out = write;
    p_write_out = write;
    p_sync = write;
    p_sync_v = Vm_types.sync_each write;
    p_done_with = (fun () -> ());
    p_exten = [];
  }

let memory_object t =
  {
    Vm_types.m_domain = t.domain;
    m_label = t.label;
    m_bind =
      (fun manager _access ->
        Pager_lib.bind t.registry ~key:t.label ~make_pager:(fun ~id:_ -> make_pager t)
          manager);
    m_get_length = (fun () -> t.len);
    m_set_length =
      (fun len ->
        if len < t.len then begin
          Bytes.fill t.store len (Bytes.length t.store - len) '\000';
          t.len <- len
        end
        else grow t len);
  }

let channels t = Pager_lib.channels t.registry
