(* FNV-1a folded to 32 bits — the same cheap non-cryptographic hash the
   journal and checksum region use.  The index stores nothing derived
   from OCaml's polymorphic hash, so images are stable across compiler
   versions. *)

let fnv1a name =
  let h = ref 0x811c9dc5 in
  for i = 0 to String.length name - 1 do
    h := (!h lxor Char.code (String.unsafe_get name i)) * 0x01000193
  done;
  (* The low 32 bits of each product depend only on the low 32 bits of
     [h], so masking once gives the per-byte-masked value. *)
  !h land 0xffffffff

(* Fold to 30 bits so the bucket computation stays on positive ints. *)
let bucket name ~buckets = fnv1a name land 0x3fffffff mod buckets
