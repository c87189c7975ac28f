(* Availability policy over supervised door calls: jittered exponential
   backoff, a per-domain circuit breaker with a degraded-mode fallback,
   and deadline-bounded retry of [Dead_domain] during restart windows.

   The contract (see DESIGN.md): under [Sp_avail.call] an operation
   either completes, completes degraded, or fails loudly — [Unavailable]
   or [Fserr.Timed_out] — within its deadline.  It never hangs behind a
   dead domain and never silently corrupts. *)

exception Unavailable of string

(* ------------------------------------------------------------------ *)
(* Backoff                                                             *)
(* ------------------------------------------------------------------ *)

module Backoff = struct
  type policy = {
    base_ns : int;
    max_delay_ns : int;
    max_attempts : int;
    jitter : float;
  }

  let default =
    { base_ns = 200_000; max_delay_ns = 5_000_000; max_attempts = 8; jitter = 0.5 }

  let make ?(base_ns = default.base_ns) ?(max_delay_ns = default.max_delay_ns)
      ?(max_attempts = default.max_attempts) ?(jitter = default.jitter) () =
    if base_ns < 0 then invalid_arg "Sp_avail.Backoff.make: negative base";
    if max_attempts < 1 then invalid_arg "Sp_avail.Backoff.make: max_attempts < 1";
    if jitter < 0.0 || jitter > 1.0 then
      invalid_arg "Sp_avail.Backoff.make: jitter outside [0,1]";
    { base_ns; max_delay_ns; max_attempts; jitter }

  (* Jitter only ever *subtracts* (delay in [(1-j)*raw, raw]), so any
     documented upper bound on total retry time computed from the
     unjittered series stays valid. *)
  let delay_ns p ~rng ~attempt =
    if attempt < 1 then invalid_arg "Sp_avail.Backoff.delay_ns: attempt < 1";
    let raw = min p.max_delay_ns (p.base_ns * (1 lsl min (attempt - 1) 16)) in
    raw - int_of_float (Sp_fault.Rng.float rng *. p.jitter *. float_of_int raw)

  let pause ?(on = "backoff") p ~rng ~attempt =
    let d = delay_ns p ~rng ~attempt in
    (* Sleeping past the ambient deadline only converts one loud failure
       into a later one: fail now, while the caller can still act. *)
    (match Sp_sched.deadline () with
    | Some dl when Sp_sim.Simclock.now () + d > dl ->
        raise (Sp_sched.Deadline_exceeded on)
    | _ -> ());
    Sp_sched.sleep d
end

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                     *)
(* ------------------------------------------------------------------ *)

module Breaker = struct
  type state =
    | Closed
    | Open of { b_until : int; b_reason : string }
    | Half_open of { h_reason : string }  (* one probe in flight *)

  type t = { br_name : string; mutable br_state : state; mutable br_trips : int }

  let table : (string, t) Hashtbl.t = Hashtbl.create 8

  let get name =
    match Hashtbl.find_opt table name with
    | Some b -> b
    | None ->
        let b = { br_name = name; br_state = Closed; br_trips = 0 } in
        Hashtbl.replace table name b;
        b

  let default_cooldown_ns = 10_000_000

  let trip ?(cooldown_ns = default_cooldown_ns) ~reason name =
    let b = get name in
    let until =
      if cooldown_ns = max_int then max_int
      else Sp_sim.Simclock.now () + cooldown_ns
    in
    b.br_state <- Open { b_until = until; b_reason = reason };
    b.br_trips <- b.br_trips + 1;
    if Sp_trace.enabled () then
      Sp_trace.instant ~name:"avail.break"
        ~args:[ ("breaker", name); ("reason", reason) ]
        ()

  (* [Some reason] while the cooldown holds.  The first caller to find
     the cooldown elapsed flips the breaker to [Half_open] and gets
     [None]: it *is* the probe.  Everyone else sees [Half_open] and is
     held off until the probe's outcome decides — [note_ok] closes,
     [trip] re-opens, [abort_probe] (probe died without an outcome)
     re-arms an already-elapsed [Open] so the next caller probes.
     The flip and the return are one atomic step (no suspension), so
     under [Sp_sched] exactly one concurrent task is admitted. *)
  let blocking name =
    let b = get name in
    match b.br_state with
    | Closed -> None
    | Half_open { h_reason } -> Some ("probe in flight: " ^ h_reason)
    | Open { b_until; b_reason } ->
        if b_until = max_int || Sp_sim.Simclock.now () < b_until then
          Some b_reason
        else begin
          b.br_state <- Half_open { h_reason = b_reason };
          if Sp_trace.enabled () then
            Sp_trace.instant ~name:"avail.half_open"
              ~args:[ ("breaker", name) ]
              ();
          None
        end

  (* Is the current caller the admitted half-open probe?  Only
     meaningful immediately after {!blocking} returned [None], before
     any suspension point. *)
  let probing name =
    match (get name).br_state with Half_open _ -> true | _ -> false

  (* The probe died without reaching [note_ok] or [trip] (deadline,
     unexpected exception).  Revert to an already-elapsed [Open] so the
     next caller becomes the probe — otherwise a dead probe would shed
     every future caller forever. *)
  let abort_probe name =
    let b = get name in
    match b.br_state with
    | Half_open { h_reason } ->
        b.br_state <-
          Open { b_until = Sp_sim.Simclock.now (); b_reason = h_reason }
    | Closed | Open _ -> ()

  let note_ok name =
    let b = get name in
    if b.br_state <> Closed then b.br_state <- Closed

  let reset name =
    let b = get name in
    b.br_state <- Closed;
    b.br_trips <- 0
end

(* ------------------------------------------------------------------ *)
(* The availability wrapper                                            *)
(* ------------------------------------------------------------------ *)

(* Deterministic by construction: virtual clock + seeded rng + the
   scheduler's fixed interleaving.  Callers that need stream isolation
   (one rng per client task) pass their own. *)
let default_rng = Sp_fault.Rng.create 0x5eed

let instant name breaker =
  if Sp_trace.enabled () then
    Sp_trace.instant ~name ~args:[ ("breaker", breaker) ] ()

let call ?deadline_ns ?(policy = Backoff.default) ?rng ?degraded ~name f =
  let rng = match rng with Some r -> r | None -> default_rng in
  let serve_degraded g =
    Sp_sim.Metrics.incr_avail_degraded ();
    instant "avail.degraded" name;
    g ()
  in
  (* Terminal failure: the breaker has just tripped (or was found open).
     Fall through to the degraded path if there is one, else fail loud. *)
  let conclude e =
    match degraded with
    | Some g -> serve_degraded g
    | None ->
        Sp_sim.Metrics.incr_avail_failed ();
        raise e
  in
  let body () =
    match Breaker.blocking name with
    | Some reason -> (
        (* Fast-fail: don't queue behind a corpse.  Counted as shed, not
           failed — the op was never attempted. *)
        Sp_sim.Metrics.incr_avail_shed ();
        instant "avail.shed" name;
        match degraded with
        | Some g -> serve_degraded g
        | None -> raise (Unavailable (name ^ ": " ^ reason)))
    | None ->
        (* If blocking just flipped an elapsed-cooldown breaker to
           half-open, this caller is the single admitted probe and must
           leave the breaker decided: success closes it (note_ok),
           terminal failure re-trips it, and anything that escapes
           undecided (deadline, unexpected exception) aborts the probe
           so the stack isn't shed forever behind a dead probe. *)
        let am_probe = Breaker.probing name in
        let rec go attempt =
          match Sp_supervise.call f with
          | v ->
              if attempt > 1 then begin
                Sp_sim.Metrics.incr_avail_retried ();
                instant "avail.retried" name
              end;
              Breaker.note_ok name;
              v
          | exception (Sp_sched.Deadline_exceeded _ as e) ->
              Sp_sim.Metrics.incr_avail_failed ();
              instant "avail.timeout" name;
              raise e
          | exception Sp_supervise.Give_up msg ->
              (* Restart budget exhausted: this stack is not coming back.
                 Open permanently so later callers shed instead of
                 re-discovering the corpse. *)
              Breaker.trip ~cooldown_ns:max_int ~reason:msg name;
              conclude (Unavailable (name ^ ": " ^ msg))
          | exception Sp_obj.Sdomain.Dead_domain who ->
              if attempt < policy.Backoff.max_attempts then begin
                instant "avail.retry" name;
                (try Backoff.pause ~on:("avail:" ^ name) policy ~rng ~attempt
                 with Sp_sched.Deadline_exceeded _ as e ->
                   Sp_sim.Metrics.incr_avail_failed ();
                   instant "avail.timeout" name;
                   raise e);
                go (attempt + 1)
              end
              else begin
                Breaker.trip ~reason:("retries exhausted on " ^ who) name;
                conclude (Unavailable (name ^ ": retries exhausted on " ^ who))
              end
        in
        if not am_probe then go 1
        else (
          try go 1
          with e ->
            Breaker.abort_probe name;
            raise e)
  in
  match deadline_ns with
  | None -> body ()
  | Some ns -> Sp_sched.with_deadline ~ns body
