(** Naming contexts.

    A context is an object containing a set of name bindings in which each
    name is unique (paper §3.2).  Any object can be bound to any name; an
    object may be bound under several names in several contexts.  Any domain
    may implement a context, and an authenticated domain can bind its
    context into any other context — this is what makes the name space
    "largely orthogonal to the file system" and what file-system stacking
    uses to arrange the exported name spaces.

    The bound-object type is an extensible variant so that higher layers
    (files, stackable file systems, creators) can be bound without this
    library depending on them. *)

(** Objects bindable in a context. *)
type obj = ..

type t = {
  ctx_domain : Sp_obj.Sdomain.t;  (** serving domain *)
  ctx_label : string;  (** diagnostic label *)
  ctx_acl : unit -> Acl.t;
  ctx_set_acl : Acl.t -> unit;
  ctx_resolve1 : string -> obj;  (** resolve one component; raises {!Unbound} *)
  ctx_bind1 : string -> obj -> unit;  (** raises {!Already_bound} *)
  ctx_rebind1 : string -> obj -> unit;  (** bind, replacing any existing binding *)
  ctx_unbind1 : string -> unit;  (** raises {!Unbound} *)
  ctx_list : unit -> string list;  (** bound names, sorted *)
  ctx_readdir1 : cookie:int -> limit:int -> string list * int option;
      (** one bounded batch of bound names from an opaque cookie (0
          starts a scan); [None] as the next cookie means exhausted.
          Weakly consistent under concurrent mutation, like POSIX
          readdir. *)
}

type obj += Context of t

exception Unbound of string
exception Already_bound of string
exception Denied of string

(** [make ~domain ~label ()] creates an empty hash-table-backed context
    served by [domain].  [acl] defaults to {!Acl.open_acl}. *)
val make : domain:Sp_obj.Sdomain.t -> label:string -> ?acl:Acl.t -> unit -> t

(** [forward ~domain ~label target] is a context served by [domain]
    whose every one-component operation runs on [target ()], found anew
    at each call — so the context can exist before its target does.  Its
    ACL is {!Acl.open_acl} and setting it does nothing: the target's own
    ACL is not consulted, as no door is crossed into it. *)
val forward : domain:Sp_obj.Sdomain.t -> label:string -> (unit -> t) -> t

(** {1 Compound-name operations}

    These walk the context chain one component at a time, performing a door
    invocation on each context's serving domain and checking its ACL against
    [principal] (default ["user"]). *)

(** Resolve a compound name to an object. *)
val resolve : ?principal:string -> t -> Sname.t -> obj

(** Resolve, requiring the result to be a context. *)
val resolve_context : ?principal:string -> t -> Sname.t -> t

(** Bind [obj] at [name]; all but the last component must resolve to
    existing contexts. *)
val bind : ?principal:string -> t -> Sname.t -> obj -> unit

(** Like {!bind} but replaces an existing binding — the primitive used for
    name-space interposition (paper §5). *)
val rebind : ?principal:string -> t -> Sname.t -> obj -> unit

val unbind : ?principal:string -> t -> Sname.t -> unit

(** List the names bound in the context denoted by [name] (use an empty
    name for the context itself). *)
val list : ?principal:string -> t -> Sname.t -> string list

(** One bounded readdir batch from the context denoted by [name]: the
    streaming alternative to {!list}.  Each batch pays one door
    crossing; neither side materialises the whole directory. *)
val readdir :
  ?principal:string ->
  t ->
  Sname.t ->
  cookie:int ->
  limit:int ->
  string list * int option

(** [mkdir_path ctx name ~domain] resolves [name], creating intermediate
    hash-table contexts (served by [domain]) as needed, and returns the
    final context. *)
val mkdir_path : ?principal:string -> t -> Sname.t -> domain:Sp_obj.Sdomain.t -> t
