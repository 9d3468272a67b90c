(** Big-endian memory with two regions mirroring the OR1200 SoC of the
    paper's evaluation platform: on-chip SRAM at the bottom of the
    address space and SDRAM above it (the distinction matters to bug
    b14). Storage is paged and zero-on-demand: a {!page_size} page gets
    bytes of its own on its first write, and untouched pages read as
    0. *)

type t

val sram_base : int
val sdram_base : int
val default_size : int

type region = Sram | Sdram

val region_of : int -> region

val page_size : int
(** 4 KiB. *)

val create : ?size:int -> unit -> t
(** Memory of [size] bytes (default 2 MiB) that reads as all zeroes.
    Allocates no page: creation costs one pointer per page. [size] need
    not be a multiple of {!page_size}; accesses are bounded by [size]
    itself. *)

exception Bus_error of int
(** Raised with the offending address on out-of-bounds access. *)

val read8 : t -> int -> int
val write8 : t -> int -> int -> unit
val read16 : t -> int -> int
val write16 : t -> int -> int -> unit
val read32 : t -> int -> int
val write32 : t -> int -> int -> unit

val peek32 : t -> int -> int
(** Non-raising word read for tracing: out-of-bounds or misaligned
    addresses read as 0. *)

val load_image : t -> (int * int) list -> unit
(** Write an assembled [(address, word)] image. *)

val size : t -> int
