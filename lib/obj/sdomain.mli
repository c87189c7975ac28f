(** Spring domains.

    A domain is an address space with a collection of threads; a given
    domain may act as the server of some objects and the client of others
    (paper §3.1).  In the simulation a domain is a named identity used by
    {!Door} to decide whether an invocation is a local procedure call or a
    cross-domain call, and by the VMM to name page-cache owners. *)

(** Raised by {!Door.call} when the serving domain has been killed
    (fail-stop of a whole layer domain).  Re-exported as
    [Sp_core.Fserr.Dead_domain]; the argument is the domain name.
    Callers that want transparent recovery route the retry through
    [Sp_supervise]. *)
exception Dead_domain of string

type t

(** [create ?node name] makes a fresh domain.  [node] identifies the machine
    the domain runs on (defaults to ["local"]); two domains on different
    nodes can never share a VMM.  Domains are created alive. *)
val create : ?node:string -> string -> t

val name : t -> string
val node : t -> string
val id : t -> int

val alive : t -> bool
(** Liveness flag read by {!Door.call} before every invocation (a single
    field read — zero simulated cost). *)

val kill : t -> unit
(** Fail-stop the domain: every subsequent door invocation targeting it
    raises {!Dead_domain}.  The domain's in-memory state is not touched —
    like a real crash, whatever its heap held simply becomes unreachable
    through the door. *)

(** Structural equality of domain identities. *)
val equal : t -> t -> bool
