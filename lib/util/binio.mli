(** Compact binary primitives for on-disk snapshot codecs: LEB128
    varints (zigzag-folded when signed), length-prefixed strings, and
    atomic whole-file replacement (temp file + rename, so a torn write
    is never observable at the destination path). *)

exception Truncated
(** Raised by the read side on any input the writer could not have
    produced: ending mid-value, a varint that is overlong / zero-padded /
    overflows a non-negative OCaml int, or a length prefix larger than
    the remaining bytes. Readers never raise [Invalid_argument] and never
    return a silently wrapped value — hostile bytes and torn snapshots
    both surface as [Truncated]. *)

type writer

val writer : unit -> writer
val contents : writer -> string

val write_uint : writer -> int -> unit
(** @raise Invalid_argument on negative values. *)

val write_int : writer -> int -> unit
val write_bool : writer -> bool -> unit
val write_string : writer -> string -> unit

val write_raw : writer -> string -> unit
(** Raw bytes with no length prefix (magic numbers, pre-framed blocks). *)

type reader

val reader : string -> reader
val eof : reader -> bool

val read_uint : reader -> int
(** Accepts only the canonical LEB128 encoding of each value in
    [0, max_int]: at most 9 bytes, no trailing zero continuation, final
    byte below the sign bit. @raise Truncated otherwise. *)

val read_int : reader -> int
val read_bool : reader -> bool
val read_string : reader -> string

val read_string_exact : reader -> int -> string
(** [read_string_exact r n] consumes exactly [n] raw bytes. *)

val atomic_write : string -> string -> unit
(** [atomic_write path data] writes [data] to a temp file in [path]'s
    directory, fsyncs it, renames it over [path], then fsyncs the
    directory. Concurrent writers race benignly (last rename wins with
    each file complete). Crash safety: after an OS crash, [path] holds
    either its previous contents or [data] in full — the data is on
    stable storage before the rename can become visible, and the rename
    itself is flushed — and at worst an orphaned temp file remains. On
    filesystems that refuse directory fsync the rename's durability is
    whatever the platform provides; atomicity is unaffected. *)

val mkdir_p : string -> unit
(** Create [dir] and any missing parents (mode 0o755); a directory that
    already exists, or that a concurrent caller creates first, is
    fine. *)

val read_file : string -> string
(** The whole (binary) file as a string. @raise Sys_error. *)
