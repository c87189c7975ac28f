(* Header: 1 byte kind (0 = raw, 1 = lzss), 4 bytes little-endian original
   length.  LZSS body: flag bytes precede groups of eight tokens; flag bit
   set = match token (2 bytes: 12-bit distance-1, 4-bit length-3), clear =
   literal byte. *)

let header_size = 5
let min_match = 3
let max_match = 18
let window = 4096

let put_header b kind len =
  Bytes.set_uint8 b 0 kind;
  Bytes.set_int32_le b 1 (Int32.of_int len)

(* Match finder.  The format is defined by the original list-chain
   finder (kept verbatim as the test oracle): each 3-byte key had a list
   of positions, newest first, and recording a position cut a list longer
   than 16 back to its newest 8 before pushing.  That list is always the
   newest [c] positions with the key, so it is enough to keep, per
   position, the previous position with the same key and the length [c]
   the list would have had with this position at its head.  A small
   open-addressed table maps each key seen in this call to its newest
   position; a position's key is read back from the input.  Positions
   count from the start of the compressed range, which begins at [off]
   in [src].

   Each position also keeps the table slot of its key, so the positions
   inside a match need no hashing: if position [i] matched [len] bytes
   at [i - d], every [p] in [(i, i + len - 3]] has the key of [p - d],
   which is already in the table.  A slot holds one key for the whole
   call, since nothing is removed, so [p] takes the slot [p - d] took and
   gets the chain it would have got by probing.  Only the last two
   positions of a match, whose keys run past it, are looked up.

   The arrays are scratch shared by every call and grown on demand.  A
   call stores positions in the table offset by its own [base], above
   every earlier call's entries, so the table is never cleared.  Sharing
   is safe under [Sp_sched] because [compress] never suspends: nothing
   here reaches [Simclock.advance].

   The hot loops read and write without bounds checks, and compare a
   candidate eight bytes at a time while eight remain.  Positions lie in
   [0, n), keys are read only at positions [<= n - min_match], a
   comparison stops at [n], slot indices are masked, and [reserve] sizes
   [out] for the worst case (all literals), so every index is in range
   once [compress_sub] has checked that [off, off + n) is inside [src]. *)
type scratch = {
  mutable out : bytes;  (* encoded stream, copied out once at the end *)
  mutable prev : int array;  (* per position: previous one with its key *)
  mutable meta : int array;
      (* per position: its key's slot [lsl 5], [lor] the length (<= 17)
         of the chain it heads *)
  mutable slots : int array;  (* [base] + newest position of a key, or stale *)
  mutable base : int;
}

let s = { out = Bytes.empty; prev = [||]; meta = [||]; slots = [||]; base = 0 }

let out_capacity n = header_size + n + (n / 8) + 2

let reserve n =
  if Bytes.length s.out < out_capacity n then s.out <- Bytes.create (out_capacity n);
  if Array.length s.prev < n then begin
    s.prev <- Array.make n 0;
    s.meta <- Array.make n 0
  end;
  (* At most [n] distinct keys: keep the table at most half full. *)
  let size = ref 8192 in
  while !size < 2 * n do
    size := 2 * !size
  done;
  if Array.length s.slots < !size then s.slots <- Array.make !size (-1);
  s.base <- s.base + Array.length s.prev

(* The key of the three bytes at [src.[at]] (an index into [src], not a
   position). *)
let[@inline] key src at =
  (Char.code (Bytes.unsafe_get src at) lsl 16)
  lor (Char.code (Bytes.unsafe_get src (at + 1)) lsl 8)
  lor Char.code (Bytes.unsafe_get src (at + 2))

(* The slot holding key [k], or the empty slot where it would go.  A
   slot holds [base] + a position, which is [src] index [off] + that
   position. *)
let find_slot src off slots base k =
  let to_src = base - off in
  let mask = Array.length slots - 1 in
  let i = ref ((k * 0x9e3779b1) lsr 13 land mask) in
  while
    let v = Array.unsafe_get slots !i in
    v >= base && key src (v - to_src) <> k
  do
    i := (!i + 1) land mask
  done;
  !i

(* Make position [i], whose key lives in (or belongs in) [slot], the
   newest of its chain. *)
let[@inline] record_at prev meta slots base i slot =
  let j = Array.unsafe_get slots slot - base in
  let c =
    if j >= 0 then begin
      Array.unsafe_set prev i j;
      let c = Array.unsafe_get meta j land 31 in
      (if c > 16 then 8 else c) + 1
    end
    else 1
  in
  Array.unsafe_set meta i ((slot lsl 5) lor c);
  Array.unsafe_set slots slot (base + i)

(* Eight bytes at [at], unchecked and in native byte order: compared
   only for equality, so the order does not matter. *)
external get64 : bytes -> int -> int64 = "%caml_bytes_get64u"

(* Longest match for position [i] among its chain, newest first; ties go
   to the newest candidate.  Returns its source position [lsl 5] [lor]
   its length, 0 when there is none.  Every candidate shares [i]'s key,
   so its first [min_match] bytes match. *)
let[@inline] find_match src off n prev meta slots base i slot =
  let j = ref (Array.unsafe_get slots slot - base) in
  if !j < 0 then 0
  else begin
    let limit = if n - i < max_match then n - i else max_match in
    let at_i = off + i in
    let best = ref 0 and best_len = ref 0 in
    let left = ref (Array.unsafe_get meta !j land 31) in
    (* Positions fall along the chain, so the first one past the window
       ends the walk; so does a match of [limit], which no later
       candidate can beat. *)
    while !left > 0 && i - !j <= window && !best_len < limit do
      let len = ref min_match and at_j = off + !j in
      while
        !len + 8 <= limit && Int64.equal (get64 src (at_j + !len)) (get64 src (at_i + !len))
      do
        len := !len + 8
      done;
      while
        !len < limit && Bytes.unsafe_get src (at_j + !len) = Bytes.unsafe_get src (at_i + !len)
      do
        incr len
      done;
      if !len > !best_len then begin
        best := (!j lsl 5) lor !len;
        best_len := !len
      end;
      j := Array.unsafe_get prev !j;
      decr left
    done;
    !best
  end

(* Mark token [bit] of the group whose flag byte is at [at] as a match. *)
let[@inline] mark_match out at bit =
  Bytes.unsafe_set out at
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get out at) lor (1 lsl bit)))

(* A match token at [at]: 12 bits of [dist - 1], 4 of [len - min_match]. *)
let[@inline] put_match out at dist len =
  Bytes.unsafe_set out at (Char.unsafe_chr ((dist lsr 4) land 0xff));
  Bytes.unsafe_set out (at + 1) (Char.unsafe_chr (((dist land 0xf) lsl 4) lor (len - min_match)))

(* Encode the [n] bytes of [src] from [off] into [s.out] and return the
   encoded length. *)
let compress_lzss src off n =
  reserve n;
  let out = s.out and prev = s.prev and meta = s.meta and slots = s.slots and base = s.base in
  put_header out 1 n;
  (* The last position with a whole key. *)
  let last = n - min_match in
  let pos = ref 0 and out_pos = ref header_size in
  let flag_pos = ref 0 and flag_bit = ref 8 in
  while !pos < n do
    let i = !pos in
    if !flag_bit = 8 then begin
      (* A new group of eight tokens: its flag byte, all bits clear. *)
      flag_pos := !out_pos;
      Bytes.unsafe_set out !out_pos '\000';
      incr out_pos;
      flag_bit := 0
    end;
    let found =
      if i > last then 0
      else begin
        let slot = find_slot src off slots base (key src (off + i)) in
        let found = find_match src off n prev meta slots base i slot in
        record_at prev meta slots base i slot;
        found
      end
    in
    let len = found land 31 in
    if len > 0 then begin
      mark_match out !flag_pos !flag_bit;
      let d = i - (found lsr 5) in
      put_match out !out_pos (d - 1) len;
      out_pos := !out_pos + 2;
      let inner = i + len - min_match in
      for p = i + 1 to inner do
        record_at prev meta slots base p (Array.unsafe_get meta (p - d) lsr 5)
      done;
      let stop = if i + len - 1 < last then i + len - 1 else last in
      for p = inner + 1 to stop do
        record_at prev meta slots base p (find_slot src off slots base (key src (off + p)))
      done;
      pos := i + len
    end
    else begin
      Bytes.unsafe_set out !out_pos (Bytes.unsafe_get src (off + i));
      incr out_pos;
      incr pos
    end;
    incr flag_bit
  done;
  !out_pos

(* Allocates only the result. *)
let compress_sub src ~pos ~len:n =
  if pos < 0 || n < 0 || pos > Bytes.length src - n then invalid_arg "Lz.compress_sub";
  let len = compress_lzss src pos n in
  if len < n + header_size then Bytes.sub s.out 0 len
  else begin
    let raw = Bytes.create (header_size + n) in
    put_header raw 0 n;
    Bytes.blit src pos raw header_size n;
    raw
  end

let compress src = compress_sub src ~pos:0 ~len:(Bytes.length src)

let decompress data =
  if Bytes.length data < header_size then invalid_arg "Lz.decompress: short input";
  let kind = Bytes.get_uint8 data 0 in
  let n = Int32.to_int (Bytes.get_int32_le data 1) in
  if n < 0 then invalid_arg "Lz.decompress: bad length";
  match kind with
  | 0 ->
      if Bytes.length data < header_size + n then
        invalid_arg "Lz.decompress: truncated raw data";
      Bytes.sub data header_size n
  | 1 ->
      (* A 2-byte match token yields at most [max_match] bytes, so no
         stream produces more than 9 bytes per input byte.  Check before
         allocating: a torn header can claim up to 2 GiB. *)
      if n > max_match / 2 * (Bytes.length data - header_size) then
        invalid_arg "Lz.decompress: length exceeds stream";
      let out = Bytes.create n in
      let pos = ref header_size in
      let out_pos = ref 0 in
      let total = Bytes.length data in
      let flag = ref 0 in
      let flag_bit = ref 8 in
      while !out_pos < n do
        if !flag_bit = 8 then begin
          if !pos >= total then invalid_arg "Lz.decompress: truncated stream";
          flag := Bytes.get_uint8 data !pos;
          incr pos;
          flag_bit := 0
        end;
        let is_match = !flag land (1 lsl !flag_bit) <> 0 in
        incr flag_bit;
        if is_match then begin
          if !pos + 1 >= total then invalid_arg "Lz.decompress: truncated match";
          let b0 = Bytes.get_uint8 data !pos in
          let b1 = Bytes.get_uint8 data (!pos + 1) in
          pos := !pos + 2;
          let dist = ((b0 lsl 4) lor (b1 lsr 4)) + 1 in
          let len = (b1 land 0xf) + min_match in
          if dist > !out_pos then invalid_arg "Lz.decompress: bad distance";
          for _ = 1 to len do
            if !out_pos >= n then invalid_arg "Lz.decompress: overlong stream";
            Bytes.set out !out_pos (Bytes.get out (!out_pos - dist));
            incr out_pos
          done
        end
        else begin
          if !pos >= total then invalid_arg "Lz.decompress: truncated literal";
          Bytes.set out !out_pos (Bytes.get data !pos);
          incr pos;
          incr out_pos
        end
      done;
      out
  | k -> invalid_arg (Printf.sprintf "Lz.decompress: unknown kind %d" k)

let work_units n = 2 * n
