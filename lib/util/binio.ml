(* Compact binary primitives for the on-disk snapshot codecs.

   Integers are LEB128 varints; signed values are zigzag-folded first so
   small negative numbers stay short. Strings are length-prefixed. A
   reader is a cursor over an immutable byte string; running off the end
   raises [Truncated] rather than returning garbage, which is how a
   partially written (torn) snapshot is detected.

   [atomic_write] is the durability half: the bytes land in a temp file
   in the destination directory and are renamed into place, so a reader
   can never observe a half-written file and a crashed writer leaves at
   worst an orphaned temp file. *)

exception Truncated

(* ---- writing ---- *)

type writer = Buffer.t

let writer () = Buffer.create 4096

let contents = Buffer.contents

(* Unsigned LEB128. Values must be non-negative. *)
let write_uint b v =
  if v < 0 then invalid_arg "Binio.write_uint: negative";
  let rec go v =
    if v < 0x80 then Buffer.add_char b (Char.chr v)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (v land 0x7F)));
      go (v lsr 7)
    end
  in
  go v

(* Zigzag: 0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ... *)
let write_int b v =
  write_uint b (if v >= 0 then v lsl 1 else ((-v) lsl 1) - 1)

let write_bool b v = write_uint b (if v then 1 else 0)

let write_string b s =
  write_uint b (String.length s);
  Buffer.add_string b s

(* Raw bytes, no length prefix (magic numbers, pre-framed blocks). *)
let write_raw = Buffer.add_string

(* ---- reading ---- *)

type reader = { data : string; mutable pos : int }

let reader data = { data; pos = 0 }

let eof r = r.pos >= String.length r.data

let read_byte r =
  if r.pos >= String.length r.data then raise Truncated;
  let c = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  c

(* Number of value bits in a non-negative OCaml int: 62 on 64-bit
   platforms. A varint whose bits reach the sign bit or beyond would
   silently wrap negative (or drop bits) if accepted, so it is rejected
   as hostile input instead. *)
let uint_value_bits = Sys.int_size - 1

(* Top-level rather than a local [let rec] over [r]: a local closure
   would be allocated on every call, and varints are the codecs' hot
   path (several per decoded record). *)
let rec read_uint_from r shift acc =
  let c = read_byte r in
  if c land 0x80 = 0 then begin
    (* Final byte. Two hostile shapes to reject: a zero final byte
       after a continuation (non-canonical padding, e.g. 0x80 0x00 as an
       overlong encoding of 0 — the writer never emits it, and accepting
       it would let one value have many encodings), and bits that land
       on or past the sign bit. *)
    if shift > 0 && c = 0 then raise Truncated;
    if shift > uint_value_bits - 7 && c lsr (uint_value_bits - shift) <> 0
    then raise Truncated;
    acc lor (c lsl shift)
  end
  else begin
    (* A continuation here would put the next byte entirely past the
       value bits; no canonical encoding continues this far. *)
    if shift + 7 >= uint_value_bits then raise Truncated;
    read_uint_from r (shift + 7) (acc lor ((c land 0x7F) lsl shift))
  end

(* Most varints in a segment or snapshot are one byte (small deltas and
   counts). That byte is a complete canonical encoding and passes every
   check above, so it is decoded in place; longer ones take the full
   path. *)
let read_uint r =
  let pos = r.pos in
  if pos < String.length r.data then begin
    let c = Char.code (String.unsafe_get r.data pos) in
    if c < 0x80 then begin
      r.pos <- pos + 1;
      c
    end
    else read_uint_from r 0 0
  end
  else raise Truncated

let read_int r =
  let v = read_uint r in
  if v land 1 = 0 then v lsr 1 else -((v + 1) lsr 1)

let read_bool r =
  match read_uint r with
  | 0 -> false
  | 1 -> true
  | _ -> raise Truncated

let read_string_exact r n =
  (* [r.pos + n] can wrap negative for a hostile length near [max_int]
     and slip past the bounds check into [String.sub]'s
     [Invalid_argument]; comparing against the remaining byte count
     cannot overflow because [pos <= length]. *)
  if n < 0 || n > String.length r.data - r.pos then raise Truncated;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let read_string r = read_string_exact r (read_uint r)

(* ---- atomic file replacement ---- *)

(* Flushing the directory makes the rename itself durable. Some
   filesystems refuse fsync on a directory fd; losing that flush only
   weakens crash durability, never correctness, so the refusal is
   tolerated. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let atomic_write path data =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir ".snap" ".tmp" in
  let ok = ref false in
  Fun.protect
    ~finally:(fun () ->
        if not !ok then (try Sys.remove tmp with Sys_error _ -> ()))
    (fun () ->
       let oc = open_out_bin tmp in
       Fun.protect ~finally:(fun () -> close_out oc)
         (fun () ->
            output_string oc data;
            (* fsync the bytes before the rename publishes the name: a
               rename can survive a crash that the unflushed data does
               not, leaving a durably named but empty/torn "atomic"
               file. *)
            flush oc;
            Unix.fsync (Unix.descr_of_out_channel oc));
       Sys.rename tmp path;
       fsync_dir dir;
       ok := true)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
