(* FNV-1a folded to 32 bits — the same cheap non-cryptographic hash the
   journal and checksum region use, and the one copy of its loop.  The
   index stores nothing derived from OCaml's polymorphic hash, so images
   are stable across compiler versions. *)

let basis = 0x811c9dc5
let prime = 0x01000193
let mask = 0xffffffff

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"

(* The length of the run of zero bytes that ends [b]'s range [off, off +
   len), compared eight bytes at a time from the end. *)
let zero_run b ~off ~len =
  let stop = ref (off + len) in
  while !stop - off >= 8 && get64u b (!stop - 8) = 0L do
    stop := !stop - 8
  done;
  while !stop > off && Bytes.unsafe_get b (!stop - 1) = '\000' do
    decr stop
  done;
  off + len - !stop

let zero_tail b = zero_run b ~off:0 ~len:(Bytes.length b)

(* [prime]^k mod 2^32 by square and multiply.  Native ints wrap mod 2^63,
   so the low 32 bits of each product are exact. *)
let rec prime_pow acc base k =
  if k = 0 then acc
  else
    let acc = if k land 1 = 1 then (acc * base) land mask else acc in
    prime_pow acc ((base * base) land mask) (k lsr 1)

(* The state lives in a local [Int64] ref, which the native compiler keeps
   unboxed in a register: the per-byte chain is one [xor] and one [imul],
   with no tagged-int fix-ups and no allocation.  The low 32 bits of each
   product depend only on the low 32 bits of the state, so masking once at
   the end gives the per-byte-masked value, and a masked result can seed
   the next [fold].  A zero byte's step is a bare multiply by [prime], so
   the range's trailing zeros and the [pad] zeros after them fold as one
   multiply by [prime]^k; the loop runs only up to the last nonzero byte. *)
let fold h b ~off ~len ~pad =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Hash.fold";
  (* A range that ends in a nonzero byte (a name, a full data page) skips
     the scan, and one with nothing to multiply skips [prime_pow]: short
     names are hashed on every lookup.  [scale] is taken before the loop,
     so no call follows it and the state never leaves its register. *)
  let zeros =
    if len > 0 && Bytes.unsafe_get b (off + len - 1) = '\000' then zero_run b ~off ~len else 0
  in
  let k = zeros + if pad > 0 then pad else 0 in
  let scale = if k = 0 then 1 else prime_pow 1 prime k in
  let h = ref (Int64.of_int h) in
  for i = off to off + len - zeros - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i)))) 0x01000193L
  done;
  (Int64.to_int !h land mask * scale) land mask

let fnv1a name =
  fold basis (Bytes.unsafe_of_string name) ~off:0 ~len:(String.length name) ~pad:0

(* Fold to 30 bits so the bucket computation stays on positive ints. *)
let bucket name ~buckets = fnv1a name land 0x3fffffff mod buckets
