(** The Spring file interface.

    A file inherits from the memory object interface (it can be mapped) and
    additionally provides read/write operations and attributes — but no
    paging operations; those live on the pager object reached through
    [bind] (paper §3.3.1, Table 1).

    File systems implement read/write "the same way as other Spring file
    systems: [they map] the file into [their] address space and read/write
    the mapped memory" (§4.2.1); {!mapped_ops} packages that standard
    implementation for reuse by every layer. *)

type t = {
  f_id : string;  (** stable identity, unique within a world *)
  f_domain : Sp_obj.Sdomain.t;  (** serving domain *)
  f_mem : Sp_vm.Vm_types.memory_object;  (** the inherited memory object *)
  f_read : pos:int -> len:int -> bytes;
      (** read up to [len] bytes; short result at end of file *)
  f_write : pos:int -> bytes -> int;
      (** write, extending the file as needed; returns bytes written *)
  f_stat : unit -> Sp_vm.Attr.t;
  f_set_attr : Sp_vm.Attr.t -> unit;
  f_truncate : int -> unit;
  f_sync : unit -> unit;  (** push cached data/attributes toward stable store *)
  f_exten : Sp_obj.Exten.t list;
}

type Sp_naming.Context.obj += File of t

(** {1 Call helpers} — door invocations on the file's serving domain. *)

val read : t -> pos:int -> len:int -> bytes

(** [read], zero-padded to [len] bytes where the file ends first. *)
val read_padded : t -> pos:int -> len:int -> bytes

val write : t -> pos:int -> bytes -> int
val stat : t -> Sp_vm.Attr.t
val set_attr : t -> Sp_vm.Attr.t -> unit
val truncate : t -> int -> unit
val sync : t -> unit

(** [read_all f] reads the whole file (by [stat].len). *)
val read_all : t -> bytes

(** Narrow a bound object to a file. *)
val of_obj : Sp_naming.Context.obj -> t option

(** {1 Standard read/write implementation} *)

(** The result of {!mapped_ops}: read/write/sync closures implemented over a
    lazily-created VMM mapping of the file's memory object. *)
type mapped_ops = {
  mo_read : pos:int -> len:int -> bytes;
  mo_write : pos:int -> bytes -> int;
  mo_sync : unit -> unit;
}

(** [mapped_ops ~vmm ~mem ~get_attr ~set_attr_len] builds read/write that
    map [mem] through [vmm] on first use.  [get_attr] supplies the current
    length (for short reads); [set_attr_len new_len] is called after a write
    extends the file, letting the layer update its length/mtime
    authoritatively. *)
val mapped_ops :
  vmm:Sp_vm.Vmm.t ->
  mem:Sp_vm.Vm_types.memory_object ->
  get_attr:(unit -> Sp_vm.Attr.t) ->
  set_attr_len:(int -> unit) ->
  mapped_ops
