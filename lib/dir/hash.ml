(* FNV-1a folded to 32 bits — the same cheap non-cryptographic hash the
   journal and checksum region use, and the one copy of its loop.  The
   index stores nothing derived from OCaml's polymorphic hash, so images
   are stable across compiler versions. *)

let basis = 0x811c9dc5

(* The state lives in a local [Int64] ref, which the native compiler keeps
   unboxed in a register: the per-byte chain is one [xor] and one [imul],
   with no tagged-int fix-ups and no allocation.  The low 32 bits of each
   product depend only on the low 32 bits of the state, so masking once at
   the end gives the per-byte-masked value, and a masked result can seed
   the next [fold]. *)
let fold h b ~off ~len ~pad =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Hash.fold";
  let h = ref (Int64.of_int h) in
  for i = off to off + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i)))) 0x01000193L
  done;
  for _ = 1 to pad do
    h := Int64.mul !h 0x01000193L
  done;
  Int64.to_int !h land 0xffffffff

let fnv1a name =
  fold basis (Bytes.unsafe_of_string name) ~off:0 ~len:(String.length name) ~pad:0

(* Fold to 30 bits so the bucket computation stays on positive ints. *)
let bucket name ~buckets = fnv1a name land 0x3fffffff mod buckets
