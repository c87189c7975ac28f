(* Failover ablation: supervised restart of a crashed pager layer.

   A client VMM holds a warm cache over a coherency layer; the layer's
   serving domain is fail-stopped and the supervisor restarts it.  The
   table reports how the restart latency (kill to first successful read
   through the supervised handle, including the supervisor's backoff)
   and the reconciliation bill (clean pages dropped for refetch, dirty
   unsynced pages lost) scale with the size of the client cache. *)

module F = Sp_core.File
module S = Sp_core.Stackable
module DL = Sp_sfs.Disk_layer

let ps = Sp_vm.Vm_types.page_size

type row = {
  f_cached : int;  (* clean pages resident at the kill *)
  f_dirty : int;  (* dirty (unsynced) pages at the kill *)
  f_restart_ns : int;  (* kill -> first successful read *)
  f_rewarm_ns : int;  (* kill -> every reconciled page refetched *)
  f_clean : int;  (* pages reconciled clean (refetchable) *)
  f_lost : int;  (* dirty pages reported lost *)
}

type t = row list

let row ~pages =
  Sp_sim.Cost_model.with_model Sp_sim.Cost_model.paper_1993 @@ fun () ->
  let tag = Printf.sprintf "fo%d" pages in
  let disk = Sp_blockdev.Disk.create ~label:tag ~blocks:4096 () in
  DL.mkfs ~journal:true disk;
  let vmm = Sp_vm.Vmm.create ~node:"local" (tag ^ ".vmm") in
  let levels =
    [
      Sp_supervise.level ~name:(tag ^ ".disk") (fun ~lower:_ ->
          DL.mount ~name:(tag ^ ".disk") disk);
      Sp_supervise.level ~name:(tag ^ ".coh") (fun ~lower ->
          let fs = Sp_coherency.Coherency_layer.make ~vmm ~name:(tag ^ ".coh") () in
          S.stack_on fs (Option.get lower);
          fs);
    ]
  in
  let sup = Sp_supervise.supervise ~name:tag levels in
  Fun.protect ~finally:(fun () -> Sp_supervise.unsupervise sup) @@ fun () ->
  let fs = Sp_supervise.handle sup in
  let hot = Sp_naming.Sname.of_string "hot" in
  let f = S.create fs hot in
  for p = 0 to pages - 1 do
    ignore (F.write f ~pos:(p * ps) (Bytes.make ps 'c'))
  done;
  S.sync fs;
  (* Touch every page so the cache is warm and clean, then dirty a
     quarter of it without syncing. *)
  for p = 0 to pages - 1 do
    ignore (F.read f ~pos:(p * ps) ~len:1)
  done;
  let dirty = max 1 (pages / 4) in
  for p = 0 to dirty - 1 do
    ignore (F.write f ~pos:(p * ps) (Bytes.make ps 'd'))
  done;
  let c0, l0 = Sp_vm.Vmm.reconciled vmm in
  Sp_supervise.kill sup (tag ^ ".coh");
  let t0 = Sp_sim.Simclock.now () in
  let g = Sp_supervise.call (fun () -> S.open_file fs hot) in
  ignore (Sp_supervise.call (fun () -> F.read g ~pos:0 ~len:ps));
  let dt = Sp_sim.Simclock.now () - t0 in
  for p = 1 to pages - 1 do
    ignore (F.read g ~pos:(p * ps) ~len:1)
  done;
  let rewarm = Sp_sim.Simclock.now () - t0 in
  let c1, l1 = Sp_vm.Vmm.reconciled vmm in
  {
    f_cached = pages;
    f_dirty = dirty;
    f_restart_ns = dt;
    f_rewarm_ns = rewarm;
    f_clean = c1 - c0;
    f_lost = l1 - l0;
  }

let run () = List.map (fun p -> row ~pages:p) [ 4; 16; 64 ]

(* Availability under live load: the concurrent layer-crash sweep at
   increasing client counts.  Each row samples a few kill points per
   layer (stride = clients, so two boundaries per layer) and reports the
   client-visible bill: ops that needed an availability retry, ops shed
   or failed, and the worst kill -> served-again gap.  The deadline
   scales with the client count like the CLI default — queueing alone
   makes tail latency grow with load. *)

type avail_row = {
  a_clients : int;
  a_points : int;  (* kill points sampled *)
  a_served : int;  (* of which fully served *)
  a_lost : int;
  a_corrupt : int;
  a_op_served : int;  (* client ops completed across all points *)
  a_retried : int;  (* of which only after an availability retry *)
  a_shed : int;
  a_failed : int;
  a_deadline_misses : int;
  a_recover_ns : int;  (* worst kill -> first-served-again gap *)
}

let avail_row ~clients =
  let r =
    Sp_sweep.run ~stride:clients
      (Sp_failover.Layer_crash_sweep.scenario ~clients
         ~op_deadline_ns:(max 1_000_000_000 (clients * 100_000_000))
         ~ops:16 ~seed:7 ())
  in
  let counter = Sp_sweep.counter r.Sp_sweep.counters in
  {
    a_clients = clients;
    a_points = r.Sp_sweep.points;
    a_served = Sp_sweep.count r "served";
    a_lost = Sp_sweep.count r "lost";
    a_corrupt = Sp_sweep.count r "corrupt";
    a_op_served = counter "op_served";
    a_retried = counter "retried";
    a_shed = counter "shed";
    a_failed = counter "failed";
    a_deadline_misses = counter "deadline_misses";
    a_recover_ns = counter "worst_gap_ns";
  }

let avail () = List.map (fun c -> avail_row ~clients:c) [ 10; 64; 1000 ]

let print_avail ppf rows =
  Format.fprintf ppf
    "@[<v>Availability under load: layer kills with live concurrent clients@,";
  Format.fprintf ppf
    "  (sampled kill points per layer; every client op under an Sp_avail@,";
  Format.fprintf ppf
    "   deadline, retry and circuit breaker; deadline = max(1s, 100ms x \
     clients))@,";
  Format.fprintf ppf "  %8s %7s %7s %10s %8s %6s %7s %9s %s@," "clients"
    "points" "served" "ops" "retried" "shed" "failed" "misses" "worst recover";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %8d %7d %7d %10d %8d %6d %7d %9d %s@," r.a_clients
        r.a_points r.a_served r.a_op_served r.a_retried r.a_shed r.a_failed
        r.a_deadline_misses
        (Format.asprintf "%a" Sp_sim.Simclock.pp_duration r.a_recover_ns))
    rows;
  Format.fprintf ppf "@]"

let print ppf t =
  Format.fprintf ppf
    "@[<v>Failover ablation: supervised pager-layer restart (paper_1993 model)@,";
  Format.fprintf ppf
    "  (fail-stop the coherency layer under a warm client cache; the supervisor@,";
  Format.fprintf ppf
    "   restarts it and the client VMM reconciles stale pages on reconnect)@,";
  Format.fprintf ppf "  %-13s %-8s %-16s %-16s %s@," "cached pages" "dirty"
    "restart latency" "rewarm latency" "reconciled";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-13d %-8d %-16s %-16s %d clean / %d lost@,"
        r.f_cached r.f_dirty
        (Format.asprintf "%a" Sp_sim.Simclock.pp_duration r.f_restart_ns)
        (Format.asprintf "%a" Sp_sim.Simclock.pp_duration r.f_rewarm_ns)
        r.f_clean r.f_lost)
    t;
  Format.fprintf ppf "@]"
