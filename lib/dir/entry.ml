(* Fixed-size 64-byte directory entry — the on-disk unit both flat and
   indexed directories store.  Layout: ino (int32le, bytes 0-3), is_dir
   flag (byte 4, 0 or 1), name length (byte 5, 0 marks a free slot),
   name bytes (6..).  The codec lives here, below the disk layer, so the
   index (Sp_dir.Index) and the offline checkers can share it.
   Every reader stays inside its slot: a length byte past [max_name]
   can only come from damage, and none is trusted. *)

let entry_size = 64
let max_name = entry_size - 6

type t = { ino : int; is_dir : bool; name : string }

let check_name name =
  if String.length name = 0 then invalid_arg "Dirent: empty name";
  if String.length name > max_name then
    invalid_arg (Printf.sprintf "Dirent: name longer than %d bytes" max_name);
  String.iter
    (function
      | '/' | '\000' -> invalid_arg "Dirent: name contains '/' or NUL"
      | _ -> ())
    name

let encode e =
  check_name e.name;
  let b = Bytes.make entry_size '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int e.ino);
  Bytes.set_uint8 b 4 (if e.is_dir then 1 else 0);
  Bytes.set_uint8 b 5 (String.length e.name);
  Bytes.blit_string e.name 0 b 6 (String.length e.name);
  b

let name_len b off = Bytes.get_uint8 b (off + 5)
let is_free b off = name_len b off = 0
let damaged b off = name_len b off > max_name

let is_live b off =
  let len = name_len b off in
  len > 0 && len <= max_name

let live_name b off = Bytes.sub_string b (off + 6) (name_len b off)

let decode_live b off =
  {
    ino = Int32.to_int (Bytes.get_int32_le b off);
    is_dir = Bytes.get_uint8 b (off + 4) = 1;
    name = live_name b off;
  }

let decode b off = if is_live b off then Some (decode_live b off) else None

(* Top-level and closure-free, so a scan compares names without
   allocating. *)
let rec same_from b pos name i len =
  i >= len
  || Bytes.get b (pos + i) = String.unsafe_get name i
     && same_from b pos name (i + 1) len

let name_equal b off name =
  let len = String.length name in
  len > 0 && len <= max_name && name_len b off = len && same_from b (off + 6) name 0 len

let free_slot = Bytes.make entry_size '\000'
