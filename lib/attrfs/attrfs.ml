let shadow_prefix = ".xattr."

type xattr_ops = {
  xa_get : string -> string option;
  xa_set : string -> string -> unit;
  xa_remove : string -> unit;
  xa_list : unit -> (string * string) list;
}

type Sp_obj.Exten.t += Xattr of xattr_ops

let xattrs (f : Sp_core.File.t) =
  Sp_obj.Exten.narrow f.Sp_core.File.f_exten (function
    | Xattr ops -> Some ops
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Shadow-file codec: u16 count, then per entry u16 klen, key, u32 vlen,
   value.                                                              *)
(* ------------------------------------------------------------------ *)

let encode_pairs pairs =
  let buf = Buffer.create 64 in
  let u16 n =
    Buffer.add_char buf (Char.chr (n land 0xff));
    Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff))
  in
  let u32 n =
    u16 (n land 0xffff);
    u16 ((n lsr 16) land 0xffff)
  in
  u16 (List.length pairs);
  List.iter
    (fun (k, v) ->
      u16 (String.length k);
      Buffer.add_string buf k;
      u32 (String.length v);
      Buffer.add_string buf v)
    pairs;
  Buffer.to_bytes buf

let decode_pairs data =
  let pos = ref 0 in
  let u16 () =
    let v = Bytes.get_uint16_le data !pos in
    pos := !pos + 2;
    v
  in
  let u32 () =
    let lo = u16 () in
    let hi = u16 () in
    lo lor (hi lsl 16)
  in
  let str n =
    let s = Bytes.sub_string data !pos n in
    pos := !pos + n;
    s
  in
  if Bytes.length data < 2 then []
  else begin
    let count = u16 () in
    List.init count (fun _ ->
        let k = str (u16 ()) in
        let v = str (u32 ()) in
        (k, v))
  end

(* ------------------------------------------------------------------ *)
(* The layer                                                           *)
(* ------------------------------------------------------------------ *)

let is_shadow name =
  String.length name >= String.length shadow_prefix
  && String.sub name 0 (String.length shadow_prefix) = shadow_prefix

let shadow_path path =
  match List.rev (Sp_naming.Sname.components path) with
  | [] -> invalid_arg "Attrfs: empty path"
  | last :: rev_dirs ->
      Sp_naming.Sname.of_components (List.rev ((shadow_prefix ^ last) :: rev_dirs))

let read_pairs over path =
  let lower = Sp_core.Over_one.lower over in
  match Sp_core.Stackable.open_file lower (shadow_path path) with
  | shadow -> decode_pairs (Sp_core.File.read_all shadow)
  | exception Sp_core.Fserr.No_such_file _ -> []

let write_pairs over path pairs =
  let lower = Sp_core.Over_one.lower over in
  let sp = shadow_path path in
  let shadow =
    match Sp_core.Stackable.open_file lower sp with
    | f -> f
    | exception Sp_core.Fserr.No_such_file _ -> Sp_core.Stackable.create lower sp
  in
  let data = encode_pairs pairs in
  Sp_core.File.truncate shadow 0;
  ignore (Sp_core.File.write shadow ~pos:0 data)

let make_xattr_ops over path =
  let sorted pairs = List.sort (fun (a, _) (b, _) -> String.compare a b) pairs in
  {
    xa_get = (fun k -> List.assoc_opt k (read_pairs over path));
    xa_set =
      (fun k v ->
        let pairs = List.remove_assoc k (read_pairs over path) in
        write_pairs over path (sorted ((k, v) :: pairs)));
    xa_remove =
      (fun k -> write_pairs over path (List.remove_assoc k (read_pairs over path)));
    xa_list = (fun () -> sorted (read_pairs over path));
  }

(* The exported file forwards everything — including the memory object,
   so mappings bind straight to the original pager — and adds the Xattr
   extension. *)
let wrap_file over domain ~key path (lower : Sp_core.File.t) =
  {
    lower with
    Sp_core.File.f_id = key;
    f_domain = domain;
    f_read = (fun ~pos ~len -> Sp_core.File.read lower ~pos ~len);
    f_write = (fun ~pos data -> Sp_core.File.write lower ~pos data);
    f_stat = (fun () -> Sp_core.File.stat lower);
    f_set_attr = (fun a -> Sp_core.File.set_attr lower a);
    f_truncate = (fun n -> Sp_core.File.truncate lower n);
    f_sync = (fun () -> Sp_core.File.sync lower);
    f_exten = Xattr (make_xattr_ops over path) :: lower.Sp_core.File.f_exten;
  }

let remove_shadow_if_any over path =
  let lower = Sp_core.Over_one.lower over in
  match Sp_core.Stackable.remove lower (shadow_path path) with
  | () -> ()
  | exception Sp_core.Fserr.No_such_file _ -> ()

let make ?(node = "local") ?domain ~name () =
  let domain =
    match domain with Some d -> d | None -> Sp_obj.Sdomain.create ~node name
  in
  let over = Sp_core.Over_one.create ~name in
  Sp_core.Over_one.pass_through over ~sfs_type:"attrfs" ~domain ~exten:[]
    ~hidden:is_shadow ~wrap:(wrap_file over domain)
    ~on_remove:(remove_shadow_if_any over)

let creator ?(node = "local") () =
  {
    Sp_core.Stackable.cr_type = "attrfs";
    cr_create = (fun ~name -> make ~node ~name ());
  }
