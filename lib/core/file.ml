type t = {
  f_id : string;
  f_domain : Sp_obj.Sdomain.t;
  f_mem : Sp_vm.Vm_types.memory_object;
  f_read : pos:int -> len:int -> bytes;
  f_write : pos:int -> bytes -> int;
  f_stat : unit -> Sp_vm.Attr.t;
  f_set_attr : Sp_vm.Attr.t -> unit;
  f_truncate : int -> unit;
  f_sync : unit -> unit;
  f_exten : Sp_obj.Exten.t list;
}

type Sp_naming.Context.obj += File of t

(* Data crossing the file interface rides the bulk path: same-domain
   calls hand pages by reference, cross-domain calls charge exactly one
   copy through the shared bulk buffer ([Door.charge_transfer]); with the
   path disabled this degrades to the legacy full marshalling copy. *)
let read f ~pos ~len =
  let data =
    Sp_obj.Door.data_call ~op:"file.read" f.f_domain (fun () -> f.f_read ~pos ~len)
  in
  Sp_obj.Door.charge_transfer f.f_domain (Bytes.length data);
  data

let read_padded f ~pos ~len =
  let data = read f ~pos ~len in
  if Bytes.length data = len then data
  else begin
    let padded = Bytes.make len '\000' in
    Bytes.blit data 0 padded 0 (Bytes.length data);
    padded
  end

let write f ~pos data =
  Sp_obj.Door.charge_transfer f.f_domain (Bytes.length data);
  Sp_obj.Door.data_call ~op:"file.write" f.f_domain (fun () -> f.f_write ~pos data)

let stat f = Sp_obj.Door.call ~op:"file.stat" f.f_domain f.f_stat

let set_attr f attr =
  Sp_obj.Door.call ~op:"file.set_attr" f.f_domain (fun () -> f.f_set_attr attr)

let truncate f len =
  Sp_obj.Door.call ~op:"file.truncate" f.f_domain (fun () -> f.f_truncate len)

let sync f = Sp_obj.Door.call ~op:"file.sync" f.f_domain f.f_sync

let read_all f =
  let attr = stat f in
  read f ~pos:0 ~len:attr.Sp_vm.Attr.len

let of_obj = function File f -> Some f | _ -> None

type mapped_ops = {
  mo_read : pos:int -> len:int -> bytes;
  mo_write : pos:int -> bytes -> int;
  mo_sync : unit -> unit;
}

let mapped_ops ~vmm ~mem ~get_attr ~set_attr_len =
  let mapping = ref None in
  let get_mapping () =
    match !mapping with
    | Some m -> m
    | None ->
        let m = Sp_vm.Vmm.map vmm mem in
        mapping := Some m;
        m
  in
  let mo_read ~pos ~len =
    let attr = get_attr () in
    let available = max 0 (attr.Sp_vm.Attr.len - pos) in
    let len = max 0 (min len available) in
    if len = 0 then Bytes.empty else Sp_vm.Vmm.read (get_mapping ()) ~pos ~len
  in
  let mo_write ~pos data =
    let len = Bytes.length data in
    if len > 0 then begin
      Sp_vm.Vmm.write (get_mapping ()) ~pos data;
      let attr = get_attr () in
      if pos + len > attr.Sp_vm.Attr.len then set_attr_len (pos + len)
      else set_attr_len attr.Sp_vm.Attr.len
    end;
    len
  in
  let mo_sync () = match !mapping with None -> () | Some m -> Sp_vm.Vmm.msync m in
  { mo_read; mo_write; mo_sync }
