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

   The arrays are scratch shared by every call and grown on demand.  A
   call stores positions in the table offset by its own [base], above
   every earlier call's entries, so the table is never cleared.  Sharing
   is safe under [Sp_sched] because [compress] never suspends: nothing
   here reaches [Simclock.advance]. *)
type scratch = {
  mutable out : bytes;  (* encoded stream, copied out once at the end *)
  mutable prev : int array;  (* per position: previous one with its key *)
  mutable chain : bytes;  (* per position: chain length it heads, <= 17 *)
  mutable slots : int array;  (* [base] + newest position of a key, or stale *)
  mutable base : int;
}

let s = { out = Bytes.empty; prev = [||]; chain = Bytes.empty; slots = [||]; base = 0 }

let out_capacity n = header_size + n + (n / 8) + 2

let reserve n =
  if Bytes.length s.out < out_capacity n then s.out <- Bytes.create (out_capacity n);
  if Array.length s.prev < n then begin
    s.prev <- Array.make n 0;
    s.chain <- Bytes.create n
  end;
  (* At most [n] distinct keys: keep the table at most half full. *)
  let size = ref 8192 in
  while !size < 2 * n do
    size := 2 * !size
  done;
  if Array.length s.slots < !size then s.slots <- Array.make !size (-1);
  s.base <- s.base + Bytes.length s.chain

(* The key of the three bytes at [src.[at]] (an index into [src], not a
   position). *)
let key src at =
  (Char.code (Bytes.unsafe_get src at) lsl 16)
  lor (Char.code (Bytes.unsafe_get src (at + 1)) lsl 8)
  lor Char.code (Bytes.unsafe_get src (at + 2))

(* The slot holding key [k], or the empty slot where it would go.  A
   slot holds [base] + a position, which is [src] index [off] + that
   position. *)
let find_slot src off k =
  let slots = s.slots and base = s.base in
  let to_src = base - off in
  let mask = Array.length slots - 1 in
  let i = ref ((k * 0x9e3779b1) lsr 13 land mask) in
  while slots.(!i) >= base && key src (slots.(!i) - to_src) <> k do
    i := (!i + 1) land mask
  done;
  !i

(* Newest position with the slot's key; negative when none. *)
let newest slot = s.slots.(slot) - s.base

(* Make position [i], whose key lives in (or belongs in) [slot], the
   newest of its chain. *)
let record_at i slot =
  let j = newest slot in
  if j >= 0 then begin
    let c = Bytes.get_uint8 s.chain j in
    s.prev.(i) <- j;
    Bytes.set_uint8 s.chain i ((if c > 16 then 8 else c) + 1)
  end
  else Bytes.set_uint8 s.chain i 1;
  s.slots.(slot) <- s.base + i

let record src off n i =
  if i + min_match <= n then record_at i (find_slot src off (key src (off + i)))

(* Longest match for position [i] among its chain, newest first; ties go
   to the newest candidate.  Returns its length (0 when none) and leaves
   its source position in [match_src]. *)
let match_src = ref 0

let find_match src off n i slot =
  let best_len = ref 0 in
  let j = ref (newest slot) in
  if !j >= 0 then begin
    let limit = min max_match (n - i) in
    let prev = s.prev in
    let left = ref (Bytes.get_uint8 s.chain !j) in
    let at_i = off + i in
    (* Positions fall along the chain, so the first one past the window
       ends the walk; so does a match of [limit], which no later
       candidate can beat. *)
    while !left > 0 && i - !j <= window && !best_len < limit do
      let len = ref 0 and at_j = off + !j in
      while
        !len < limit && Bytes.unsafe_get src (at_j + !len) = Bytes.unsafe_get src (at_i + !len)
      do
        incr len
      done;
      if !len > !best_len && !len >= min_match then begin
        match_src := !j;
        best_len := !len
      end;
      j := prev.(!j);
      decr left
    done
  end;
  !best_len

(* Encode the [n] bytes of [src] from [off] into [s.out] and return the
   encoded length. *)
let compress_lzss src off n =
  reserve n;
  let out = s.out in
  put_header out 1 n;
  let pos = ref 0 in
  let out_pos = ref header_size in
  let flag_pos = ref 0 in
  let flag_bit = ref 8 in
  let emit_flag bit =
    if !flag_bit = 8 then begin
      flag_pos := !out_pos;
      Bytes.set_uint8 out !out_pos 0;
      incr out_pos;
      flag_bit := 0
    end;
    if bit then
      Bytes.set_uint8 out !flag_pos
        (Bytes.get_uint8 out !flag_pos lor (1 lsl !flag_bit));
    incr flag_bit
  in
  while !pos < n do
    let i = !pos in
    let len =
      if i + min_match > n then 0
      else begin
        let slot = find_slot src off (key src (off + i)) in
        let len = find_match src off n i slot in
        record_at i slot;
        len
      end
    in
    if len > 0 then begin
      emit_flag true;
      let dist = i - !match_src - 1 in
      Bytes.set_uint8 out !out_pos ((dist lsr 4) land 0xff);
      Bytes.set_uint8 out (!out_pos + 1) (((dist land 0xf) lsl 4) lor (len - min_match));
      out_pos := !out_pos + 2;
      for p = i + 1 to i + len - 1 do
        record src off n p
      done;
      pos := i + len
    end
    else begin
      emit_flag false;
      Bytes.set out !out_pos (Bytes.get src (off + i));
      incr out_pos;
      incr pos
    end
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
