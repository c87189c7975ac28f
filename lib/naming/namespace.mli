(** Per-domain name spaces.

    Each Spring domain has a context object implementing a per-domain name
    space; all domains share part of their name space but can customise the
    rest (paper §3.2).  A namespace is a thin overlay context: lookups try
    the private overlay first and fall back to the shared root. *)

type t

(** [create ~shared ~domain] builds a namespace for [domain] over the
    [shared] root context. *)
val create : shared:Context.t -> domain:Sp_obj.Sdomain.t -> t

(** The namespace viewed as an ordinary context (resolves overlay first,
    then the shared root; binds go to the overlay). *)
val as_context : t -> Context.t

(** Bind a private customisation visible only through this namespace. *)
val customize : t -> Sname.t -> Context.obj -> unit
