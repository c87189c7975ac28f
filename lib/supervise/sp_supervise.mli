(** Supervised restart of layer domains.

    The paper's architecture runs each file-system layer in its own
    domain, so a whole layer domain dying mid-operation is a failure mode
    the stack must survive.  A supervisor holds the {e recipe} used to
    build a linear stack — one {!level} per layer, each a closure from
    the (still-live) lower layer to a fresh incarnation — and turns
    [Fserr.Dead_domain] into: deterministic backoff, kill everything from
    the dead level up (fencing stale references), rebuild those levels
    bottom-up, rebind the top of the stack in the namespace, retry.

    Coherence recovery rides on the rebuild: a restarted layer is a new
    pager incarnation, so when it reconnects to a client VMM the VMM
    reconciles stale pages per MRSW state ([Vmm.reconciled]), and pager
    registries fence callbacks from pre-crash incarnations
    ([Pager_lib.live_cache]).

    With no supervisor consulted and no faults armed nothing here is on
    any hot path: the door's liveness test is a single field read. *)

(** Raised by {!call} when a level exceeds its restart budget. *)
exception Give_up of string

(** A restart recipe for one layer of a linear stack. *)
type level

(** [level ~name build] — [name] must equal the layer's instance name
    (and hence its serving-domain name: that is how a [Dead_domain]
    exception is routed back to the recipe).  [build ~lower] creates a
    fresh incarnation stacked on [lower] ([None] only for the base
    level). *)
val level : name:string -> (lower:Sp_core.Stackable.t option -> Sp_core.Stackable.t) -> level

type t

(** [supervise ~name levels] builds the stack bottom-up and registers
    every level.  [budget] bounds restarts {e per level} (default 8;
    {!Give_up} beyond it).  [backoff_ns] is the base of the per-level
    exponential backoff slept (idle — [Sp_sched.sleep], so under a
    scheduler other clients run through the window) before a restart
    (default 1ms; the [n]-th restart of a level waits [backoff_ns * 2^n]).
    [rebind] names a (context, name) binding updated to the current top
    incarnation after every restart.  [base] is an unsupervised file
    system the bottom level stacks on. *)
val supervise :
  ?budget:int ->
  ?backoff_ns:int ->
  ?rebind:Sp_naming.Context.t * Sp_naming.Sname.t ->
  ?base:Sp_core.Stackable.t ->
  name:string ->
  level list ->
  t

(** The supervised handle: a stackable proxy (served by its own
    supervisor domain) whose every operation resolves the current top
    incarnation inside {!call} — callers keep using one value across
    restarts.  Files returned by it belong to the current incarnation;
    after a crash they must be re-opened (operations on them raise
    [Dead_domain], which {!call} turns into a restart — the retry must
    then re-resolve). *)
val handle : t -> Sp_core.Stackable.t

(** Current top-of-stack incarnation (changes across restarts). *)
val top : t -> Sp_core.Stackable.t

(** Current incarnation of the named level. *)
val current : t -> string -> Sp_core.Stackable.t

(** [call f] runs [f] and, on [Fserr.Dead_domain] from a supervised
    domain, restarts the dead level (and everything above it) and
    retries [f].  Unsupervised dead domains re-raise.  If the domain's
    current incarnation is alive — [f] tripped over a stale pre-restart
    reference — it retries once without restarting, then re-raises.

    Under [Sp_sched], a restart already in flight on another task is not
    duplicated: the caller gets [Dead_domain] back immediately and should
    back off and retry ([Sp_avail.call] does). *)
val call : (unit -> 'a) -> 'a

(** Kill the named level's current serving domain (fail-stop: the next
    door call into it raises [Dead_domain]).  Used by sweeps and tests;
    fault plans reach the same state via a [Domain_crash] rule. *)
val kill : t -> string -> unit

(** Total level rebuilds performed by this supervisor. *)
val restarts : t -> int

(** Rebuild count of the named level. *)
val level_restarts : t -> string -> int

(** Deregister every level (test hygiene: the registry is global). *)
val unsupervise : t -> unit
