module V = Sp_vm.Vm_types

let ps = V.page_size

type 'a t = { key : string; lower : Sp_core.File.t; state : Mrsw.t; own : 'a }

type 'a ops = {
  page_in : 'a t -> int -> bytes;
  store : 'a t -> offset:int -> bytes -> unit;
  set_len : 'a t -> int -> unit;
}

let lower_len e = (Sp_core.File.stat e.lower).Sp_vm.Attr.len

(* [size] bytes at [offset], assembled from whole transformed pages. *)
let read ops e ~offset ~size =
  let out = Bytes.create size in
  let rec go cursor =
    if cursor < size then begin
      let off = offset + cursor in
      let page = V.page_index off in
      let data = ops.page_in e page in
      let in_page = off - (page * ps) in
      let n = min (size - cursor) (ps - in_page) in
      Bytes.blit data in_page out cursor n;
      go (cursor + n)
    end
  in
  go 0;
  out

(* A shrink writes back outside any grant section, so it takes the
   protocol's write side as a push does. *)
let truncate ~channels ops e len =
  Mrsw.shrink e.state ~channels ~key:e.key ~old:(lower_len e) ~len ~write_down:(fun x ->
      Mrsw.granting e.state ~access:V.Read_write (fun () ->
          ops.store e ~offset:x.V.ext_offset x.V.ext_data));
  ops.set_len e len

let make ~vmm ~domain ~channels ops ~key own lower =
  let e = { key; lower; state = Mrsw.create (); own } in
  let stat () = Sp_core.File.stat lower in
  let set_attr = Sp_core.File.set_attr lower in
  let fs_pager =
    {
      V.fp_get_attr = stat;
      fp_set_attr = set_attr;
      fp_attr_sync =
        (fun a ->
          let len = a.Sp_vm.Attr.len in
          if len <> lower_len e then ops.set_len e len;
          set_attr a);
    }
  in
  Mrsw.export_file ~vmm ~domain ~channels ~key
    ~produce:(fun ~offset ~size ~access:_ -> read ops e ~offset ~size)
    ~store:(fun ~retain:_ ~offset data -> ops.store e ~offset data)
    ~fs_pager:(fun ~id:_ -> fs_pager)
    ~stat
    ~length:(fun () -> lower_len e)
    ~set_attr
    ~grow:(fun len -> if len > lower_len e then ops.set_len e len)
    ~truncate:(truncate ~channels ops e)
    ~sync:(fun () -> Sp_core.File.sync lower)
    e.state
