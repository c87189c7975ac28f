module F = Sp_core.File
module W = Workload

let ps = Sp_vm.Vm_types.page_size

type row = { label : string; off_ns : int; on_ns : int; note : string }

let with_paper_model f = Sp_sim.Cost_model.with_model Sp_sim.Cost_model.paper_1993 f

(* Warm 4KB read/write on the two-domain stack: the copy tax the bulk
   path removes.  Off = classic marshalling (full door cost + one copy
   per crossing); on = by-reference handoff over an established bulk
   channel. *)
let warm_rw enabled tag =
  with_paper_model (fun () ->
      Sp_obj.Bulk.with_enabled enabled (fun () ->
          let inst = W.make_instance ~tag W.Stacked_two_domains in
          let data = Bytes.make ps 'b' in
          let read =
            W.avg_ns (fun () -> ignore (F.read inst.W.i_file ~pos:0 ~len:ps))
          in
          let write =
            W.avg_ns (fun () -> ignore (F.write inst.W.i_file ~pos:0 data))
          in
          (read, write)))

(* Cold sequential 128KB mapped read through DFS: bulk transfer plus the
   adaptive read-ahead window batching page-in RPCs. *)
let remote_sequential enabled tag =
  with_paper_model (fun () ->
      Sp_obj.Bulk.with_enabled enabled (fun () ->
          let remote, _, vmm_b = Ablations.make_remote tag in
          let total = 32 * ps in
          ignore (F.write remote ~pos:0 (Bytes.make total 's'));
          F.sync remote;
          Sp_vm.Vmm.set_adaptive vmm_b enabled;
          let m = Sp_vm.Vmm.map vmm_b remote.F.f_mem in
          let t0 = Sp_sim.Simclock.now () in
          for i = 0 to (total / ps) - 1 do
            ignore (Sp_vm.Vmm.read m ~pos:(i * ps) ~len:ps)
          done;
          Sp_sim.Simclock.now () - t0))

(* Sync of a 32-page dirty file: per-page pushes vs one vectored extent
   (one seek + one contiguous transfer at the disk layer). *)
let clustered_sync clustered tag =
  with_paper_model (fun () ->
      let inst = W.make_instance ~tag W.Stacked_two_domains in
      Sp_vm.Vmm.set_clustered inst.W.i_vmm clustered;
      (* Allocate and sync once so the measured sync is steady-state
         writeback, not first-touch block allocation. *)
      ignore (F.write inst.W.i_file ~pos:0 (Bytes.make (32 * ps) 'c'));
      F.sync inst.W.i_file;
      ignore (F.write inst.W.i_file ~pos:0 (Bytes.make (32 * ps) 'd'));
      let t0 = Sp_sim.Simclock.now () in
      F.sync inst.W.i_file;
      Sp_sim.Simclock.now () - t0)

let run () =
  let read_off, write_off = warm_rw false "bulk-off" in
  let read_on, write_on = warm_rw true "bulk-on" in
  let seq_off = remote_sequential false "bulk-seq-off" in
  let seq_on = remote_sequential true "bulk-seq-on" in
  let sync_off = clustered_sync false "bulk-sync-off" in
  let sync_on = clustered_sync true "bulk-sync-on" in
  [
    {
      label = "warm 4KB read, two domains";
      off_ns = read_off;
      on_ns = read_on;
      note = "bulk channel hands the page across by reference";
    };
    {
      label = "warm 4KB write, two domains";
      off_ns = write_off;
      on_ns = write_on;
      note = "one copy into the shared bulk buffer, none at the source";
    };
    {
      label = "remote sequential 128KB mapped read";
      off_ns = seq_off;
      on_ns = seq_on;
      note = "adaptive read-ahead batches page-in RPCs over the bulk path";
    };
    {
      label = "sync 32 dirty pages";
      off_ns = sync_off;
      on_ns = sync_on;
      note = "clustered writeback: one vectored extent, one seek";
    };
  ]

let print ppf rows =
  Format.fprintf ppf "Bulk data path (off -> on; simulated 1993 model)@.";
  let us ns = Printf.sprintf "%.1fus" (float_of_int ns /. 1e3) in
  List.iter
    (fun r ->
      let ratio = float_of_int r.off_ns /. float_of_int (max 1 r.on_ns) in
      Format.fprintf ppf "  %-38s %10s -> %10s (%5.1fx)  [%s]@." r.label
        (us r.off_ns) (us r.on_ns) ratio r.note)
    rows
