module F = Sp_core.File
module S = Sp_core.Stackable
module W = Workload

let ps = Sp_vm.Vm_types.page_size

type result = { label : string; baseline_ns : int; variant_ns : int; note : string }

let with_paper_model f = Sp_sim.Cost_model.with_model Sp_sim.Cost_model.paper_1993 f

let name_cache () =
  with_paper_model (fun () ->
      let inst = W.make_instance W.Stacked_two_domains in
      let name = Sp_naming.Sname.of_string "bench" in
      let plain = W.avg_ns (fun () -> ignore (S.open_file inst.W.i_fs name)) in
      let cache = Sp_naming.Name_cache.create ~capacity:64 () in
      ignore (S.open_file_cached cache inst.W.i_fs name);
      let cached =
        W.avg_ns (fun () -> ignore (S.open_file_cached cache inst.W.i_fs name))
      in
      {
        label = "open, two domains: name cache off/on";
        baseline_ns = plain;
        variant_ns = cached;
        note = "paper 6.4: name caching eliminates the stacked open overhead";
      })

let make_remote tag =
  let net = Sp_dfs.Net.create () in
  let vmm_a = Sp_vm.Vmm.create ~node:(tag ^ "-srv") ("vmm-" ^ tag) in
  let disk = Sp_blockdev.Disk.create ~blocks:2048 () in
  Sp_sfs.Disk_layer.mkfs disk;
  let sfs =
    Sp_coherency.Spring_sfs.make_split ~node:(tag ^ "-srv") ~vmm:vmm_a
      ~name:("sfs-" ^ tag) ~same_domain:false disk
  in
  let dfs =
    Sp_dfs.Dfs.make_server ~node:(tag ^ "-srv") ~net ~vmm:vmm_a ~name:("dfs-" ^ tag) ()
  in
  S.stack_on dfs sfs;
  ignore (S.create dfs (Sp_naming.Sname.of_string "bench"));
  let import = Sp_dfs.Dfs.import ~net ~client_node:(tag ^ "-cli") dfs in
  let remote = S.open_file import (Sp_naming.Sname.of_string "bench") in
  ignore (F.write remote ~pos:0 (Bytes.make ps 'r'));
  let vmm_b = Sp_vm.Vmm.create ~node:(tag ^ "-cli") ("vmm-cli-" ^ tag) in
  let cfs = Sp_cfs.Cfs.make ~node:(tag ^ "-cli") ~vmm:vmm_b ~name:("cfs-" ^ tag) () in
  (remote, cfs, vmm_b)

let cfs_stat () =
  with_paper_model (fun () ->
      let remote, cfs, _ = make_remote "abl-stat" in
      let bare = W.avg_ns ~iters:20 (fun () -> ignore (F.stat remote)) in
      let local = Sp_cfs.Cfs.interpose cfs remote in
      ignore (F.stat local);
      let interposed = W.avg_ns ~iters:20 (fun () -> ignore (F.stat local)) in
      {
        label = "remote stat: without/with CFS";
        baseline_ns = bare;
        variant_ns = interposed;
        note = "CFS caches attributes locally (6.2)";
      })

let cfs_read () =
  with_paper_model (fun () ->
      let remote, cfs, _ = make_remote "abl-read" in
      let bare =
        W.avg_ns ~iters:20 (fun () -> ignore (F.read remote ~pos:0 ~len:ps))
      in
      let local = Sp_cfs.Cfs.interpose cfs remote in
      ignore (F.read local ~pos:0 ~len:ps);
      let interposed =
        W.avg_ns ~iters:20 (fun () -> ignore (F.read local ~pos:0 ~len:ps))
      in
      {
        label = "remote 4KB read: without/with CFS";
        baseline_ns = bare;
        variant_ns = interposed;
        note = "CFS maps the file and serves reads from the local VMM";
      })

let dfs_map_vs_rpc () =
  with_paper_model (fun () ->
      let remote, _, vmm_b = make_remote "abl-map" in
      let rpc = W.avg_ns ~iters:20 (fun () -> ignore (F.read remote ~pos:0 ~len:ps)) in
      let m = Sp_vm.Vmm.map vmm_b remote.F.f_mem in
      ignore (Sp_vm.Vmm.read m ~pos:0 ~len:ps);
      let mapped = W.avg_ns ~iters:20 (fun () -> ignore (Sp_vm.Vmm.read m ~pos:0 ~len:ps)) in
      {
        label = "remote 4KB read: rpc vs local mapping";
        baseline_ns = rpc;
        variant_ns = mapped;
        note = "binding forwards to the remote pager once; later reads hit the VMM";
      })

(* §8 extension: cold sequential read of a 128 KB file with the VMM's
   adaptive read-ahead off vs on (no manual window). *)
let readahead () =
  with_paper_model (fun () ->
      (* Where read-ahead pays in this architecture: bulk transfer over a
         channel with per-request cost — a remote client's mapped
         sequential read through DFS (each page-in is an RPC). *)
      let remote_sequential_ns ~adaptive tag =
        let remote, _, vmm_b = make_remote tag in
        let total = 32 * ps in
        ignore (F.write remote ~pos:0 (Bytes.make total 's'));
        F.sync remote;
        Sp_vm.Vmm.set_adaptive vmm_b adaptive;
        let m = Sp_vm.Vmm.map vmm_b remote.F.f_mem in
        let t0 = Sp_sim.Simclock.now () in
        for i = 0 to (total / ps) - 1 do
          ignore (Sp_vm.Vmm.read m ~pos:(i * ps) ~len:ps)
        done;
        Sp_sim.Simclock.now () - t0
      in
      let off = remote_sequential_ns ~adaptive:false "abl-ra-off" in
      let on = remote_sequential_ns ~adaptive:true "abl-ra-on" in
      {
        label = "remote sequential 128KB read: adaptive readahead off/on";
        baseline_ns = off;
        variant_ns = on;
        note = "paper 8: the per-entry window doubles as the run continues";
      })

(* Towers of increasing depth over one SFS: depth 1 = SFS alone, then
   +cryptfs, +compfs, +coherency. *)
let depth_sweep () =
  with_paper_model (fun () ->
      let measure depth tag =
        let inst = W.make_instance ~tag W.Stacked_two_domains in
        let vmm = inst.W.i_vmm in
        let node = "local" in
        let add fs = function
          | "cryptfs" ->
              let l =
                Sp_cryptfs.Cryptfs.make ~node ~vmm ~name:(tag ^ "-crypt")
                  ~key:"k" ()
              in
              S.stack_on l fs;
              l
          | "compfs" ->
              let l = Sp_compfs.Compfs.make ~node ~vmm ~name:(tag ^ "-comp") () in
              S.stack_on l fs;
              l
          | "coherency" ->
              let l =
                Sp_coherency.Coherency_layer.make ~node ~vmm ~name:(tag ^ "-coh") ()
              in
              S.stack_on l fs;
              l
          | t -> invalid_arg t
        in
        let wanted = List.filteri (fun i _ -> i < depth - 1)
            [ "cryptfs"; "compfs"; "coherency" ]
        in
        let top = List.fold_left add inst.W.i_fs wanted in
        let f = S.create top (Sp_naming.Sname.of_string "d") in
        ignore (F.write f ~pos:0 (Bytes.make ps 'd'));
        ignore (S.open_file top (Sp_naming.Sname.of_string "d"));
        ignore (F.read f ~pos:0 ~len:ps);
        let open_ns =
          W.avg_ns ~iters:20 (fun () ->
              ignore (S.open_file top (Sp_naming.Sname.of_string "d")))
        in
        let read_ns =
          W.avg_ns ~iters:20 (fun () -> ignore (F.read f ~pos:0 ~len:ps))
        in
        (depth, open_ns, read_ns)
      in
      List.map
        (fun d -> measure d (Printf.sprintf "abl-depth%d" d))
        [ 1; 2; 3; 4 ])

let print_depth_sweep ppf rows =
  Format.fprintf ppf
    "Stack-depth sweep (layers above the disk layer; warm caches)@.";
  Format.fprintf ppf "  %-7s %12s %12s@." "depth" "open (us)" "read4k (us)";
  List.iter
    (fun (d, o, r) ->
      Format.fprintf ppf "  %-7d %12.0f %12.0f@." d
        (float_of_int o /. 1e3) (float_of_int r /. 1e3))
    rows

let run_all () =
  [ name_cache (); cfs_stat (); cfs_read (); dfs_map_vs_rpc (); readahead () ]

let print ppf results =
  Format.fprintf ppf "Ablations (simulated 1993 model)@.";
  let us ns = Printf.sprintf "%.1fus" (float_of_int ns /. 1e3) in
  List.iter
    (fun r ->
      let ratio = float_of_int r.baseline_ns /. float_of_int (max 1 r.variant_ns) in
      let ratio_str = if ratio > 999. then ">999x" else Printf.sprintf "%.1fx" ratio in
      Format.fprintf ppf "  %-42s %10s -> %10s (%6s)  [%s]@." r.label
        (us r.baseline_ns) (us r.variant_ns) ratio_str r.note)
    results
