module V = Sp_vm.Vm_types
module T = Sp_coherency.Transform_file

let ps = V.page_size

(* Read one ciphertext page and return the plaintext, zero-padded. *)
let read_plain_page key (e : unit T.t) page =
  let pos = page * ps in
  let data = Sp_core.File.read e.T.lower ~pos ~len:ps in
  Sp_obj.Door.charge_cpu (Cipher.work_units (Bytes.length data));
  let plain = Cipher.apply ~key ~page data in
  if Bytes.length plain = ps then plain
  else begin
    let padded = Bytes.make ps '\000' in
    Bytes.blit plain 0 padded 0 (Bytes.length plain);
    padded
  end

(* Growing the file must fill the gap with encrypted zeros: a hole of raw
   zeros in the ciphertext would decrypt to keystream garbage. *)
let grow_with_zeros key e ~old_len ~new_len =
  if new_len > old_len then begin
    let rec go pos =
      if pos < new_len then begin
        let page = V.page_index pos in
        let upto = min new_len ((page + 1) * ps) in
        let plain = read_plain_page key e page in
        Bytes.fill plain (pos - (page * ps)) (upto - pos) '\000';
        let cipher = Cipher.apply ~key ~page plain in
        Sp_obj.Door.charge_cpu (Cipher.work_units (upto - (page * ps)));
        ignore
          (Sp_core.File.write e.T.lower ~pos:(page * ps)
             (Bytes.sub cipher 0 (upto - (page * ps))));
        go upto
      end
    in
    go old_len
  end

let set_len key e new_len =
  let old_len = T.lower_len e in
  grow_with_zeros key e ~old_len ~new_len;
  if new_len < old_len then V.set_length e.T.lower.Sp_core.File.f_mem new_len

let store key e ~offset data =
  (* Clip to the current length: pages arrive whole from caches, but the
     ciphertext file must stay exactly as long as the plaintext. *)
  let len = T.lower_len e in
  let keep = min (Bytes.length data) (max 0 (len - offset)) in
  if keep > 0 then begin
    let rec go cursor =
      if cursor < keep then begin
        let off = offset + cursor in
        let page = V.page_index off in
        let in_page = off - (page * ps) in
        let n = min (keep - cursor) (ps - in_page) in
        let chunk =
          if in_page = 0 && n = ps then Bytes.sub data cursor n
          else begin
            (* Partial page: fetch, patch, re-encrypt whole page. *)
            let plain = read_plain_page key e page in
            Bytes.blit data cursor plain in_page n;
            Bytes.sub plain 0 (min ps (max (in_page + n) (len - (page * ps))))
          end
        in
        let cipher_page = Cipher.apply ~key ~page chunk in
        Sp_obj.Door.charge_cpu (Cipher.work_units (Bytes.length cipher_page));
        ignore (Sp_core.File.write e.T.lower ~pos:(page * ps) cipher_page);
        go (cursor + n)
      end
    in
    go 0
  end

let make ?(node = "local") ?domain ~vmm ~name ~key () =
  let domain =
    match domain with Some d -> d | None -> Sp_obj.Sdomain.create ~node name
  in
  let over = Sp_core.Over_one.create ~name in
  let channels = Sp_vm.Pager_lib.create () in
  let ops =
    { T.page_in = read_plain_page key; store = store key; set_len = set_len key }
  in
  let file_key (lower : Sp_core.File.t) =
    Printf.sprintf "cryptfs:%s:%s" name lower.Sp_core.File.f_id
  in
  let build ~fresh:_ lower =
    T.make ~vmm ~domain ~channels ops ~key:(file_key lower) () lower
  in
  Sp_core.Over_one.stackable over ~sfs_type:"cryptfs" ~domain ~exten:[]
    ~wrap:(Sp_core.Over_one.file over build)
    ~forget:(fun lower -> Sp_vm.Pager_lib.destroy_key channels ~key:(file_key lower))
    ~sync:(fun () -> Sp_core.Over_one.iter over Sp_core.File.sync)
    ~drop_caches:(fun () ->
      Sp_core.Stackable.drop_caches (Sp_core.Over_one.lower over))
    ~charge_open:Sp_core.Over_one.charge_open_state

let creator ?(node = "local") ~vmm ~key () =
  {
    Sp_core.Stackable.cr_type = "cryptfs";
    cr_create = (fun ~name -> make ~node ~vmm ~name ~key ());
  }
