module Disk = Sp_blockdev.Disk
module Layout = Sp_sfs.Layout
module Csum = Sp_sfs.Csum

type report = {
  sr_scanned : int;
  sr_bad : int;
  sr_repaired : int;
  sr_ns : int;
}

let from_device other n =
  match Disk.read other n with
  | data -> Some (data, Disk.sum other n)
  | exception Sp_core.Fserr.Io_error _ -> None

(* The scrubber is an offline tool in the fsck family: it reads the raw
   device (the whole point is to reach stored bytes, not caches), so run
   it against a synced or unmounted volume. *)
let run ?repair_with disk =
  let t0 = Sp_sim.Simclock.now () in
  let layout = Layout.decode_superblock (Disk.read disk 0) in
  let finish scanned bad repaired =
    {
      sr_scanned = scanned;
      sr_bad = bad;
      sr_repaired = repaired;
      sr_ns = Sp_sim.Simclock.now () - t0;
    }
  in
  match Csum.attach disk layout with
  | None -> finish 0 0 0
  | Some c ->
      let scanned = ref 0 and bad = ref 0 and repaired = ref 0 in
      for b = 0 to layout.Layout.total_blocks - 1 do
        if Csum.covers c b then begin
          incr scanned;
          if not (Csum.matches c b (Disk.read_sum disk b)) then begin
            incr bad;
            Sp_sim.Metrics.incr_checksum_failures ();
            if Sp_trace.enabled () then
              Sp_trace.instant ~name:"checksum:mismatch"
                ~args:[ ("disk", Disk.label disk); ("block", string_of_int b) ]
                ();
            match repair_with with
            | None -> ()
            | Some fetch -> (
                match fetch b with
                | Some (good, sum) when Csum.matches c b sum ->
                    Disk.write disk b good;
                    incr repaired;
                    Sp_sim.Metrics.incr_integrity_repairs ();
                    if Sp_trace.enabled () then
                      Sp_trace.instant ~name:"scrub.repair"
                        ~args:
                          [
                            ("disk", Disk.label disk);
                            ("block", string_of_int b);
                          ]
                        ()
                | Some _ | None ->
                    (* no replacement, or the replacement is damaged too:
                       leave the block flagged rather than guessing *)
                    ())
          end
        end
      done;
      finish !scanned !bad !repaired
