module F = Sp_core.File
module S = Sp_core.Stackable

let ps = Sp_vm.Vm_types.page_size

let fig2_channel_counts () =
  Sp_sim.Cost_model.with_model Sp_sim.Cost_model.paper_1993 (fun () ->
      (* Pager 1: two distinct memory objects cached by one VMM. *)
      let vmm1 = Sp_vm.Vmm.create ~node:"n1" "fig2-vmm1" in
      let disk = Sp_blockdev.Disk.create ~blocks:512 () in
      Sp_sfs.Disk_layer.mkfs disk;
      let pager1 = Sp_sfs.Disk_layer.mount ~name:"fig2-pager1" disk in
      let f1 = S.create pager1 (Sp_naming.Sname.of_string "m1") in
      let f2 = S.create pager1 (Sp_naming.Sname.of_string "m2") in
      ignore (Sp_vm.Vmm.map vmm1 f1.F.f_mem);
      ignore (Sp_vm.Vmm.map vmm1 f2.F.f_mem);
      let two_files_one_vmm = Sp_sfs.Disk_layer.channel_count pager1 in
      (* Pager 2: one memory object cached by two VMMs. *)
      let vmm2 = Sp_vm.Vmm.create ~node:"n2" "fig2-vmm2" in
      let disk2 = Sp_blockdev.Disk.create ~blocks:512 () in
      Sp_sfs.Disk_layer.mkfs disk2;
      let pager2 = Sp_sfs.Disk_layer.mount ~name:"fig2-pager2" disk2 in
      let g = S.create pager2 (Sp_naming.Sname.of_string "shared") in
      ignore (Sp_vm.Vmm.map vmm1 g.F.f_mem);
      ignore (Sp_vm.Vmm.map vmm2 g.F.f_mem);
      let one_file_two_vmms = Sp_sfs.Disk_layer.channel_count pager2 in
      (two_files_one_vmm, one_file_two_vmms))

let compfs_write_ns ~coherent tag =
  let vmm = Sp_vm.Vmm.create ~node:tag ("vmm-" ^ tag) in
  let disk = Sp_blockdev.Disk.create ~blocks:2048 () in
  Sp_sfs.Disk_layer.mkfs disk;
  let sfs =
    Sp_coherency.Spring_sfs.make_split ~node:tag ~vmm ~name:("sfs-" ^ tag)
      ~same_domain:false disk
  in
  let comp = Sp_compfs.Compfs.make ~node:tag ~coherent ~vmm ~name:("comp-" ^ tag) () in
  S.stack_on comp sfs;
  let f = S.create comp (Sp_naming.Sname.of_string "bench") in
  let data = Bytes.make ps 'c' in
  ignore (F.write f ~pos:0 data);
  F.sync f;
  Workload.avg_ns ~iters:20 (fun () ->
      ignore (F.write f ~pos:0 data);
      F.sync f)

(* Figures 5/6: [(incoherent_write_ns, coherent_write_ns)]. *)
let fig56_compfs_modes () =
  Sp_sim.Cost_model.with_model Sp_sim.Cost_model.paper_1993 (fun () ->
      let incoherent = compfs_write_ns ~coherent:false "fig5" in
      let coherent = compfs_write_ns ~coherent:true "fig6" in
      (incoherent, coherent))

let print ppf () =
  let a, b = fig2_channel_counts () in
  Format.fprintf ppf
    "Figure 2 observables: pager1 serves 2 memory objects at 1 VMM -> %d \
     channels; pager2 serves 1 memory object at 2 VMMs -> %d channels@."
    a b;
  let inc, coh = fig56_compfs_modes () in
  Format.fprintf ppf
    "Figures 5/6: COMPFS 4KB write+sync, incoherent %sms vs coherent (C3-P3) \
     %sms (%.0f%% overhead for downward coherency)@."
    (Workload.ms inc) (Workload.ms coh)
    (100. *. (float_of_int coh /. float_of_int inc -. 1.))
