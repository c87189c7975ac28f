(** Availability policy over supervised door calls.

    [Sp_supervise] makes a single caller survive a layer-domain crash:
    restart the dead levels, retry.  Under live concurrent load that is
    not enough — while one task rebuilds the stack, every other client
    task keeps dialling the corpse.  This module states the availability
    contract and enforces it: under {!call}, an operation either
    {ul
    {- completes (possibly only after backoff-retry through a restart
       window — counted [avail_retried]);}
    {- completes {e degraded} through a caller-supplied read-only
       fallback (Mirrorfs one twin, Versionfs frozen view — counted
       [avail_degraded]);}
    {- or fails {e loudly} within its deadline: {!Unavailable} when the
       circuit breaker is open or retry is exhausted (counted
       [avail_shed] / [avail_failed]), [Fserr.Timed_out] when the
       deadline expires (counted [avail_failed]).}}
    It never hangs behind a dead or saturated domain.  Everything is
    deterministic: virtual clock, seeded jitter, fixed scheduler
    interleaving. *)

(** The named stack cannot serve: its breaker is open, its restart
    budget is exhausted, or retries ran out — and no degraded fallback
    was provided. *)
exception Unavailable of string

(** Jittered, capped exponential backoff.  One policy serves both
    door-level [Dead_domain] retry (here) and DFS RPC retry
    ([Sp_dfs.Net]). *)
module Backoff : sig
  type policy = {
    base_ns : int;  (** delay before the 2nd attempt *)
    max_delay_ns : int;  (** cap on any single delay *)
    max_attempts : int;  (** total attempts, including the first *)
    jitter : float;  (** in [0,1]: delay drawn from [(1-j)*raw, raw] *)
  }

  (** Defaults: 200µs base, 5ms cap, 8 attempts, 0.5 jitter; {!call}
      uses them when given no policy. *)
  val make :
    ?base_ns:int ->
    ?max_delay_ns:int ->
    ?max_attempts:int ->
    ?jitter:float ->
    unit ->
    policy

  (** The [attempt]-th delay (1-based; the delay slept {e after} attempt
    [attempt] fails): [raw = min max_delay_ns (base_ns * 2^(attempt-1))]
    minus a seeded jitter fraction.  Jitter only subtracts, so bounds
    computed from the unjittered series remain valid.  Deterministic in
    the rng state. *)
  val delay_ns : policy -> rng:Sp_fault.Rng.t -> attempt:int -> int

  (** Sleep the [attempt]-th delay as {e idle} time ([Sp_sched.sleep] —
      no busy charge; under a scheduler other tasks run).  If the sleep
      would cross the ambient [Sp_sched.with_deadline], raises
      [Sp_sched.Deadline_exceeded on] {e without} sleeping. *)
  val pause : ?on:string -> policy -> rng:Sp_fault.Rng.t -> attempt:int -> unit
end

(** Per-name circuit breaker.  {!call} trips it on terminal failures
    (permanently on [Sp_supervise.Give_up], for a cooldown on retry
    exhaustion); while open, callers shed instead of queueing behind the
    corpse.  An elapsed cooldown half-opens: exactly {e one} caller is
    admitted as the probe (the first to call {!blocking} after the
    cooldown — atomic, no suspension point, so concurrent [Sp_sched]
    tasks cannot both be admitted); every other caller sheds until the
    probe's outcome closes ({!note_ok}) or re-trips ({!trip}) the
    breaker, or the probe dies undecided ({!abort_probe}). *)
module Breaker : sig
  (** [trip ~reason name] opens the breaker for [cooldown_ns] of virtual
      time (default 10ms; [max_int] = permanently). *)
  val trip : ?cooldown_ns:int -> reason:string -> string -> unit

  (** [Some reason] while the breaker holds callers off (cooldown still
      running, or a half-open probe already in flight); [None] when
      closed — or when this call just flipped an elapsed cooldown to
      half-open, making the caller the single admitted probe. *)
  val blocking : string -> string option

  (** [true] while a half-open probe is in flight.  Immediately after
      {!blocking} returned [None] (before any suspension point) this
      tells the caller whether it is that probe. *)
  val probing : string -> bool

  (** The half-open probe died without an outcome (deadline, unexpected
      exception): revert to an already-elapsed open so the next caller
      probes.  No-op unless half-open. *)
  val abort_probe : string -> unit

  (** Record a successful probe: closes the breaker if open. *)
  val note_ok : string -> unit

  (** Close and zero the counter (sweeps call this between points). *)
  val reset : string -> unit
end

(** [call ~name f] runs [f] under the availability contract above.
    [name] keys the circuit breaker (one per protected stack).

    [f] is wrapped in [Sp_supervise.call], so a [Dead_domain] from a
    supervised domain first triggers (or waits out) a restart; a
    [Dead_domain] that escapes — restart in flight on another task, or
    stale incarnation — is retried up to [policy.max_attempts] times
    with {!Backoff.pause} between attempts.  [?deadline_ns] scopes an
    [Sp_sched.with_deadline] over the whole thing (attempts, backoffs
    and queue waits included).  [?rng] seeds the jitter (tasks should
    pass a per-client rng for stream isolation; default is a shared
    deterministic one).  [?degraded] is served instead of raising
    {!Unavailable} on shed and terminal failures.

    Counters: [avail_retried] (succeeded after >1 attempt),
    [avail_shed] (breaker open), [avail_failed] (loud failure),
    [avail_degraded] (fallback served); trace instants [avail.retry],
    [avail.retried], [avail.shed], [avail.break], [avail.timeout],
    [avail.degraded]. *)
val call :
  ?deadline_ns:int ->
  ?policy:Backoff.policy ->
  ?rng:Sp_fault.Rng.t ->
  ?degraded:(unit -> 'a) ->
  name:string ->
  (unit -> 'a) ->
  'a
