(** Compound names.

    A name is a sequence of components separated by ['/'].  Contexts resolve
    one component at a time; compound resolution walks the context chain. *)

type t

(** Parse a textual name.  Leading/trailing/repeated separators are
    tolerated; ["/a//b/"] parses as [["a"; "b"]].  Components ["."] are
    dropped.  Raises [Invalid_argument] on [".."] (the Spring name space is
    a graph, not a tree; parent traversal is not defined). *)
val of_string : string -> t

val to_string : t -> string
val of_components : string list -> t
val components : t -> string list

(** [split name] is [Some (first_component, rest)], or [None] if empty. *)
val split : t -> (string * t) option

val is_empty : t -> bool

val append : t -> string -> t
