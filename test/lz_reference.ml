(* Test-only oracle: the original list-chain LZSS compressor, kept
   verbatim.  [Sp_compfs.Lz.compress] must emit exactly these bytes for
   every input, since compressed chunks are on-disk format. *)

let header_size = 5
let min_match = 3
let max_match = 18
let window = 4096

let put_header b kind len =
  Bytes.set_uint8 b 0 kind;
  Bytes.set_int32_le b 1 (Int32.of_int len)

let compress_lzss src =
  let n = Bytes.length src in
  (* Worst case: every token a literal = n + n/8 + 1 flag bytes. *)
  let out = Bytes.create (header_size + n + (n / 8) + 2) in
  put_header out 1 n;
  (* Hash chains over 3-byte prefixes. *)
  let heads = Hashtbl.create 256 in
  let key i =
    (Char.code (Bytes.get src i) lsl 16)
    lor (Char.code (Bytes.get src (i + 1)) lsl 8)
    lor Char.code (Bytes.get src (i + 2))
  in
  let find_match i =
    if i + min_match > n then None
    else begin
      let candidates = Option.value (Hashtbl.find_opt heads (key i)) ~default:[] in
      let best = ref None in
      let consider j =
        if i - j <= window then begin
          let len = ref 0 in
          let limit = min max_match (n - i) in
          while !len < limit && Bytes.get src (j + !len) = Bytes.get src (i + !len) do
            incr len
          done;
          match !best with
          | Some (_, best_len) when !len <= best_len -> ()
          | _ -> if !len >= min_match then best := Some (j, !len)
        end
      in
      List.iter consider candidates;
      !best
    end
  in
  let record i =
    if i + min_match <= n then
      let k = key i in
      let prev = Option.value (Hashtbl.find_opt heads k) ~default:[] in
      (* Keep chains short; older candidates age out of the window anyway. *)
      let prev = if List.length prev > 16 then List.filteri (fun idx _ -> idx < 8) prev else prev in
      Hashtbl.replace heads k (i :: prev)
  in
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
    (match find_match !pos with
    | Some (j, len) ->
        emit_flag true;
        let dist = !pos - j - 1 in
        Bytes.set_uint8 out !out_pos ((dist lsr 4) land 0xff);
        Bytes.set_uint8 out (!out_pos + 1) (((dist land 0xf) lsl 4) lor (len - min_match));
        out_pos := !out_pos + 2;
        for k = !pos to !pos + len - 1 do
          record k
        done;
        pos := !pos + len
    | None ->
        emit_flag false;
        Bytes.set out !out_pos (Bytes.get src !pos);
        incr out_pos;
        record !pos;
        incr pos)
  done;
  Bytes.sub out 0 !out_pos

let compress src =
  let n = Bytes.length src in
  let encoded = compress_lzss src in
  if Bytes.length encoded < n + header_size then encoded
  else begin
    let raw = Bytes.create (header_size + n) in
    put_header raw 0 n;
    Bytes.blit src 0 raw header_size n;
    raw
  end
