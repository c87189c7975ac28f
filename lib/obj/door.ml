let user_domain = Sdomain.create ~node:"local" "user"
let current_domain = ref user_domain
let current () = !current_domain

(* The current domain is per-activity state: two interleaved scheduler
   tasks are each inside their own call chain, and their save/restore
   pairs in [invoke] do not nest across a suspension.  Registering it as
   task-local makes the scheduler swap it on every switch. *)
let () = Sp_sched.register_tls current_domain

(* Under an [Sp_sched] run, the door-crossing cost into each domain is
   served by a small queueing station: a domain has a handful of server
   threads parked on its doors, so when many clients cross into it at
   once the crossings queue (and the wait lands in [Metrics.queue_ns]).
   Only the crossing charge is serialized — the invocation body runs
   unserialized, since layers are internally re-entrant in the
   simulation and serializing bodies would deadlock nested calls. *)
let door_servers = 4

(* Keyed by [node/name] so that a restarted domain shares its
   predecessor's station (see [station_by_id]). *)
let stations : (string, Sp_sched.Station.t) Hashtbl.t = Hashtbl.create 32

(* Crossings look their station up by domain id, which neither builds
   nor hashes a string.  The [node/name] table behind it is what makes a
   restarted domain (a fresh [Sdomain.t] under the old name) share its
   predecessor's station. *)
let station_by_id : (int, Sp_sched.Station.t) Hashtbl.t = Hashtbl.create 32

let station_of target =
  match Hashtbl.find station_by_id (Sdomain.id target) with
  | st -> st
  | exception Not_found ->
      let key = Sdomain.node target ^ "/" ^ Sdomain.name target in
      let st =
        match Hashtbl.find_opt stations key with
        | Some st -> st
        | None ->
            let st = Sp_sched.Station.create ~servers:door_servers ("door:" ^ key) in
            Hashtbl.replace stations key st;
            st
      in
      Hashtbl.replace station_by_id (Sdomain.id target) st;
      st

(* Outside a scheduler task this is exactly [Simclock.advance]. *)
let serve_crossing target ns =
  if Sp_sched.in_task () then Sp_sched.Station.serve (station_of target) ns
  else Sp_sim.Simclock.advance ns

let charge_invocation target =
  let model = Sp_sim.Cost_model.current () in
  if Sdomain.equal !current_domain target then begin
    Sp_sim.Metrics.incr_local_calls ();
    Sp_sim.Simclock.advance model.local_call_ns
  end
  else begin
    Sp_sim.Metrics.incr_cross_domain_calls ();
    serve_crossing target model.cross_domain_call_ns
  end

(* The crossing helpers restore state with [match ... with exception]
   rather than [Fun.protect], which would allocate a closure per call. *)
let from domain f =
  let saved = !current_domain in
  current_domain := domain;
  match f () with
  | r ->
      current_domain := saved;
      r
  | exception e ->
      current_domain := saved;
      raise e

let invoke target f =
  charge_invocation target;
  from target f

(* Door invocations have no native error type, so injected failures
   surface as [Sp_fault.Injected] (and [Fail_stop] as [Sp_fault.Crash],
   raised by [consult] itself). *)
let consult_fault op =
  if Sp_fault.active () then
    match Sp_fault.consult ~point:"door.call" ~label:op with
    | Sp_fault.Pass -> ()
    | Sp_fault.Fail_io msg | Sp_fault.Dropped msg -> raise (Sp_fault.Injected msg)
    | Sp_fault.Delayed ns -> Sp_sim.Simclock.advance ns
    | Sp_fault.Torn _ | Sp_fault.Torn_crash _ | Sp_fault.Domain_died _
    | Sp_fault.Bit_rot _ | Sp_fault.Misdirected _ | Sp_fault.Lost_write_ack -> ()

(* A [Domain_crash] rule at the [domain.crash] point (label = serving
   domain name) fail-stops the target the first time a call reaches it.
   The liveness test itself is one field read: the disarmed, all-alive
   path costs nothing. *)
let check_alive target =
  if Sp_fault.active () then begin
    match
      Sp_fault.consult ~point:"domain.crash" ~label:(Sdomain.name target)
    with
    | Sp_fault.Domain_died _ -> Sdomain.kill target
    | _ -> ()
  end;
  (* The caller's own domain may have been killed while this fiber was
     suspended inside it.  Its threads died with the domain: the next
     crossing stops the fiber, whichever direction it faces — otherwise a
     zombie fiber of the old incarnation keeps mutating shared lower-layer
     state while the restarted one is already serving.  One field read on
     the live path. *)
  if not (Sdomain.alive !current_domain) then
    raise (Sdomain.Dead_domain (Sdomain.name !current_domain));
  if not (Sdomain.alive target) then begin
    if Sp_trace.enabled () then
      Sp_trace.instant ~name:"door.dead_domain"
        ~args:[ ("domain", Sdomain.name target) ]
        ();
    raise (Sdomain.Dead_domain (Sdomain.name target))
  end

(* The checks every crossing makes before [invoke] (plain or data)
   charges and enters the target. *)
let guarded invoke op target f =
  Sp_sched.check_deadline ~on:op;
  consult_fault op;
  check_alive target;
  if Sp_trace.enabled () then
    Sp_trace.span ~op
      ~src:(Sdomain.name !current_domain)
      ~dst:(Sdomain.name target) ~node:(Sdomain.node target)
      (fun () -> invoke target f)
  else invoke target f

(* Deadline enforcement lives at the door: every call boundary checks
   the ambient deadline (one ref read when unset), and the crossing's
   station wait is cancellable (see [Sp_sched.Station]), so a caller
   queued into a saturated domain gets [Deadline_exceeded] instead of
   waiting forever.  [?deadline_ns] scopes a fresh (or tighter) deadline
   over just this call; without one no closure is built. *)
let with_opt_deadline invoke op deadline_ns target f =
  match deadline_ns with
  | None -> guarded invoke op target f
  | Some ns -> Sp_sched.with_deadline ~ns (fun () -> guarded invoke op target f)

let call ?(op = "invoke") ?deadline_ns target f =
  with_opt_deadline invoke op deadline_ns target f

(* ------------------------------------------------------------------ *)
(* Bulk data path (paper §6.4)                                         *)
(* ------------------------------------------------------------------ *)

(* Like [charge_invocation], but for data-bearing calls: once a bulk
   channel between the two domains exists, the crossing costs
   [bulk_call_ns] (arguments ride in the pre-mapped buffer).  The
   establishing call pays the full door cost plus the one-time mapping
   setup.  Counted as a cross-domain call either way. *)
let charge_data_invocation target =
  let model = Sp_sim.Cost_model.current () in
  if Sdomain.equal !current_domain target then begin
    Sp_sim.Metrics.incr_local_calls ();
    Sp_sim.Simclock.advance model.local_call_ns
  end
  else begin
    Sp_sim.Metrics.incr_cross_domain_calls ();
    if not (Bulk.enabled ()) then serve_crossing target model.cross_domain_call_ns
    else if Bulk.established !current_domain target then
      serve_crossing target model.bulk_call_ns
    else begin
      Bulk.establish !current_domain target;
      Sp_sim.Metrics.incr_bulk_setups ();
      if Sp_trace.enabled () then
        Sp_trace.instant ~name:"bulk.setup"
          ~args:
            [
              ("src", Sdomain.name !current_domain);
              ("dst", Sdomain.name target);
            ]
          ();
      serve_crossing target (model.cross_domain_call_ns + model.bulk_setup_ns)
    end
  end

let leave_data saved scoped =
  current_domain := saved;
  if scoped then Bulk.exit_scope ()

let data_invoke target f =
  charge_data_invocation target;
  let scoped = Bulk.enabled () && not (Sdomain.equal !current_domain target) in
  let saved = !current_domain in
  current_domain := target;
  if scoped then Bulk.enter_scope ();
  match f () with
  | r ->
      leave_data saved scoped;
      r
  | exception e ->
      leave_data saved scoped;
      raise e

let data_call ?(op = "invoke") ?deadline_ns target f =
  with_opt_deadline data_invoke op deadline_ns target f

let charge_kernel_call () =
  let model = Sp_sim.Cost_model.current () in
  Sp_sim.Metrics.incr_kernel_calls ();
  Sp_sim.Simclock.advance model.kernel_call_ns

let kernel_call () =
  if Sp_trace.enabled () then
    Sp_trace.span ~op:"kernel.trap"
      ~src:(Sdomain.name !current_domain)
      ~dst:"(kernel)"
      ~node:(Sdomain.node !current_domain)
      charge_kernel_call
  else charge_kernel_call ()

let charge_copy bytes =
  let model = Sp_sim.Cost_model.current () in
  Sp_trace.note_copy bytes;
  Sp_sim.Simclock.advance (bytes * model.copy_per_byte_ns)

(* Payload accounting at a data-bearing interface boundary, relative to
   the current (caller) domain.  Same-domain: pages are handed by
   reference, zero marshalling copies.  Cross-domain: exactly one copy,
   into the shared bulk buffer.  With the bulk path disabled this is the
   legacy full marshalling copy ([fallback:true], the file interface) or
   the historically unaccounted pager traffic ([fallback:false]). *)
let charge_transfer ?(fallback = true) target bytes =
  if bytes > 0 then
    if not (Bulk.enabled ()) then begin
      if fallback then charge_copy bytes
    end
    else if Sdomain.equal !current_domain target then
      Sp_sim.Metrics.incr_bulk_handoffs ()
    else begin
      Sp_sim.Metrics.incr_bulk_copies ();
      charge_copy bytes
    end

(* Payload copy at a data *source* (page cache -> caller buffer, disk
   layer file body -> caller buffer).  Inside a cross-domain data call
   the source writes straight into the bulk buffer the boundary charges
   for, so the private copy is elided. *)
let charge_source_copy bytes =
  if bytes > 0 then
    if Bulk.enabled () && Bulk.in_scope () then Sp_sim.Metrics.incr_bulk_handoffs ()
    else charge_copy bytes

let charge_cpu units =
  let model = Sp_sim.Cost_model.current () in
  Sp_trace.note_cpu units;
  Sp_sim.Simclock.advance (units * model.cpu_op_ns)
