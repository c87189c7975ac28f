module V = Sp_vm.Vm_types
module Csum = Sp_sfs.Csum
module T = Sp_coherency.Transform_file

let ps = V.page_size

type layer = {
  l_name : string;
  mutable l_verified : int;
  mutable l_failures : int;
}

(* Each file's own state: page index -> FNV-1a of the padded page. *)
type sums = (int, int) Hashtbl.t

type Sp_obj.Exten.t += Layer of layer

let layer_of =
  Sp_core.Stackable.narrow ~what:"an integrityfs layer" (function
    | Layer l -> Some l
    | _ -> None)

(* Verify a padded page against the recorded checksum.  Pages never seen
   before are trusted on first read (the layer has no store of its own to
   persist sums in); once recorded, any later divergence of the lower
   layer's bytes is a hard [Checksum_error], not wrong data. *)
let verify_page l (e : sums T.t) page data =
  Sp_obj.Door.charge_cpu (Csum.work_units ps);
  let sum = Csum.cksum data in
  match Hashtbl.find_opt e.T.own page with
  | None -> Hashtbl.replace e.T.own page sum
  | Some want when want = sum -> l.l_verified <- l.l_verified + 1
  | Some _ ->
      l.l_failures <- l.l_failures + 1;
      Sp_sim.Metrics.incr_checksum_failures ();
      if Sp_trace.enabled () then
        Sp_trace.instant ~name:"checksum:mismatch"
          ~args:
            [
              ("layer", l.l_name); ("file", e.T.key); ("page", string_of_int page);
            ]
          ();
      raise
        (Sp_core.Fserr.Checksum_error
           (Printf.sprintf "%s: page %d from below does not match its recorded checksum"
              e.T.key page))

(* One lower page, zero-padded to a full page. *)
let page_in l (e : sums T.t) page =
  let data = Sp_core.File.read_padded e.T.lower ~pos:(page * ps) ~len:ps in
  verify_page l e page data;
  data

let record_page (e : sums T.t) page data =
  Sp_obj.Door.charge_cpu (Csum.work_units ps);
  Hashtbl.replace e.T.own page (Csum.cksum data)

(* Forget sums from the page containing [len] upward (their lower bytes
   are about to change shape under a shrink). *)
let invalidate_from (e : sums T.t) len =
  let first = len / ps in
  let victims =
    Hashtbl.fold (fun p _ acc -> if p >= first then p :: acc else acc) e.T.own []
  in
  List.iter (Hashtbl.remove e.T.own) victims

let set_len e new_len =
  let old_len = T.lower_len e in
  if new_len < old_len then invalidate_from e new_len;
  V.set_length e.T.lower.Sp_core.File.f_mem new_len

let store e ~offset data =
  (* Clip to the current length, like every passthrough layer. *)
  let len = T.lower_len e in
  let keep = min (Bytes.length data) (max 0 (len - offset)) in
  if keep > 0 then begin
    ignore (Sp_core.File.write e.T.lower ~pos:offset (Bytes.sub data 0 keep));
    (* Re-checksum what we now know: a page whose content this push
       fully determines (whole page, or prefix up to EOF — the read
       path zero-pads the tail) is recorded; a partially-overwritten
       page is forgotten and re-trusted on its next page_in. *)
    let first = offset / ps and last = (offset + keep - 1) / ps in
    for page = first to last do
      let start = page * ps in
      let lo = max offset start and hi = min (offset + keep) (start + ps) in
      if lo = start && (hi = start + ps || hi >= len) then begin
        let padded = Bytes.make ps '\000' in
        Bytes.blit data (lo - offset) padded 0 (hi - lo);
        record_page e page padded
      end
      else Hashtbl.remove e.T.own page
    done
  end

let make ?(node = "local") ?domain ~vmm ~name () =
  let domain =
    match domain with Some d -> d | None -> Sp_obj.Sdomain.create ~node name
  in
  let l = { l_name = name; l_verified = 0; l_failures = 0 } in
  let over = Sp_core.Over_one.create ~name in
  let channels = Sp_vm.Pager_lib.create () in
  let ops = { T.page_in = page_in l; store; set_len } in
  let file_key (lower : Sp_core.File.t) =
    Printf.sprintf "integrityfs:%s:%s" name lower.Sp_core.File.f_id
  in
  let build ~fresh:_ lower =
    T.make ~vmm ~domain ~channels ops ~key:(file_key lower) (Hashtbl.create 16) lower
  in
  Sp_core.Over_one.stackable over ~sfs_type:"integrityfs" ~domain
    ~exten:[ Layer l ] ~wrap:(Sp_core.Over_one.file over build)
    ~forget:(fun lower -> Sp_vm.Pager_lib.destroy_key channels ~key:(file_key lower))
    ~sync:(fun () -> Sp_core.Over_one.iter over Sp_core.File.sync)
    ~drop_caches:(fun () ->
      Sp_core.Stackable.drop_caches (Sp_core.Over_one.lower over))
    ~charge_open:Sp_core.Over_one.charge_open_state

let creator ?(node = "local") ~vmm () =
  {
    Sp_core.Stackable.cr_type = "integrityfs";
    cr_create = (fun ~name -> make ~node ~vmm ~name ());
  }

let verified sfs = (layer_of sfs).l_verified
let failures sfs = (layer_of sfs).l_failures
