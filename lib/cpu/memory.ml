(* Big-endian memory with two regions mirroring the OR1200 SoC used in
   the paper's evaluation platform: on-chip SRAM at the bottom of the
   address space and SDRAM above it. The region distinction matters only
   to bug b14 ("byte and half-word write to SRAM failure when executing
   from SDRAM").

   Storage is paged and zero-on-demand: the address space is split into
   4 KiB pages that all start as one shared, never-written zero page,
   and a page gets bytes of its own on its first write. A machine that
   runs a short trigger program touches a handful of pages (code, data,
   stack), so creating one costs an array of page pointers rather than
   zero-filling the whole address space. Bounds and [Bus_error] are
   checked against [size], exactly as for flat storage. *)

let page_bits = 12
let page_size = 1 lsl page_bits (* 4 KiB *)
let page_mask = page_size - 1

(* Read-only: [page_for_write] swaps it out before any byte is set. *)
let zero_page = Bytes.make page_size '\000'

type t = { pages : Bytes.t array; size : int }

let sram_base = 0x0000_0000
let sdram_base = 0x0010_0000
let default_size = 0x0020_0000 (* 2 MiB *)

type region = Sram | Sdram

let region_of addr = if addr >= sdram_base then Sdram else Sram

let create ?(size = default_size) () =
  { pages = Array.make ((size + page_mask) lsr page_bits) zero_page; size }

let in_bounds t addr width = addr >= 0 && addr + width <= t.size

exception Bus_error of int

let check t addr width =
  if not (in_bounds t addr width) then raise (Bus_error addr)

let page_for_write t addr =
  let i = addr lsr page_bits in
  let p = t.pages.(i) in
  if p != zero_page then p
  else begin
    let p = Bytes.make page_size '\000' in
    t.pages.(i) <- p;
    p
  end

(* Unchecked byte access: the caller has bounds-checked [addr]. *)
let get t addr =
  Char.code (Bytes.unsafe_get t.pages.(addr lsr page_bits) (addr land page_mask))

let set t addr v =
  Bytes.unsafe_set (page_for_write t addr) (addr land page_mask)
    (Char.unsafe_chr (v land 0xFF))

let read8 t addr =
  check t addr 1;
  get t addr

let write8 t addr v =
  check t addr 1;
  set t addr v

let read16 t addr =
  check t addr 2;
  (get t addr lsl 8) lor get t (addr + 1)

let write16 t addr v =
  check t addr 2;
  set t addr (v lsr 8);
  set t (addr + 1) v

let read32 t addr =
  check t addr 4;
  let off = addr land page_mask in
  if off <= page_size - 4 then begin
    (* The common case: all four bytes on one page. *)
    let p = t.pages.(addr lsr page_bits) in
    (Char.code (Bytes.unsafe_get p off) lsl 24)
    lor (Char.code (Bytes.unsafe_get p (off + 1)) lsl 16)
    lor (Char.code (Bytes.unsafe_get p (off + 2)) lsl 8)
    lor Char.code (Bytes.unsafe_get p (off + 3))
  end
  else
    (get t addr lsl 24) lor (get t (addr + 1) lsl 16)
    lor (get t (addr + 2) lsl 8) lor get t (addr + 3)

let write32 t addr v =
  check t addr 4;
  set t addr (v lsr 24);
  set t (addr + 1) (v lsr 16);
  set t (addr + 2) (v lsr 8);
  set t (addr + 3) v

(* Read a word for tracing without raising: out-of-bounds reads as 0. *)
let peek32 t addr =
  if in_bounds t addr 4 && addr land 3 = 0 then read32 t addr else 0

let load_image t image =
  List.iter (fun (addr, word) -> write32 t addr word) image

let size t = t.size
