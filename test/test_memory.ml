(* Memory subsystem: big-endian layout, bounds, regions. *)

module Mem = Cpu.Memory

let test_big_endian () =
  let m = Mem.create () in
  Mem.write32 m 0x100 0x11223344;
  Alcotest.(check int) "byte 0" 0x11 (Mem.read8 m 0x100);
  Alcotest.(check int) "byte 3" 0x44 (Mem.read8 m 0x103);
  Alcotest.(check int) "half 0" 0x1122 (Mem.read16 m 0x100);
  Alcotest.(check int) "half 2" 0x3344 (Mem.read16 m 0x102)

let test_byte_write_updates_word () =
  let m = Mem.create () in
  Mem.write32 m 0x200 0xAABBCCDD;
  Mem.write8 m 0x201 0x00;
  Alcotest.(check int) "patched" 0xAA00CCDD (Mem.read32 m 0x200)

let test_half_write () =
  let m = Mem.create () in
  Mem.write16 m 0x300 0xBEEF;
  Alcotest.(check int) "hi byte" 0xBE (Mem.read8 m 0x300);
  Alcotest.(check int) "lo byte" 0xEF (Mem.read8 m 0x301)

let test_truncation () =
  let m = Mem.create () in
  Mem.write8 m 0 0x1FF;
  Alcotest.(check int) "byte masked" 0xFF (Mem.read8 m 0);
  Mem.write16 m 4 0x12345;
  Alcotest.(check int) "half masked" 0x2345 (Mem.read16 m 4)

let test_bus_error () =
  let m = Mem.create ~size:0x1000 () in
  Alcotest.check_raises "read past end" (Mem.Bus_error 0x1000)
    (fun () -> ignore (Mem.read32 m 0x1000));
  Alcotest.check_raises "straddling end" (Mem.Bus_error 0xFFE)
    (fun () -> ignore (Mem.read32 m 0xFFE));
  Alcotest.check_raises "negative" (Mem.Bus_error (-4))
    (fun () -> ignore (Mem.read32 m (-4)))

let test_peek_never_raises () =
  let m = Mem.create ~size:0x1000 () in
  Alcotest.(check int) "oob" 0 (Mem.peek32 m 0x10_0000);
  Alcotest.(check int) "misaligned" 0 (Mem.peek32 m 2);
  Mem.write32 m 8 42;
  Alcotest.(check int) "valid" 42 (Mem.peek32 m 8)

let test_regions () =
  Alcotest.(check bool) "low is SRAM" true (Mem.region_of 0x1000 = Mem.Sram);
  Alcotest.(check bool) "high is SDRAM" true
    (Mem.region_of Mem.sdram_base = Mem.Sdram);
  Alcotest.(check bool) "boundary minus one" true
    (Mem.region_of (Mem.sdram_base - 1) = Mem.Sram)

let test_load_image () =
  let m = Mem.create () in
  Mem.load_image m [ (0x10, 0xAAAAAAAA); (0x14, 0x55555555) ];
  Alcotest.(check int) "first" 0xAAAAAAAA (Mem.read32 m 0x10);
  Alcotest.(check int) "second" 0x55555555 (Mem.read32 m 0x14)

(* ---- paged, zero-on-demand storage ---- *)

let page = Mem.page_size

let test_untouched_reads_zero () =
  let m = Mem.create () in
  List.iter
    (fun addr ->
       Alcotest.(check int) (Printf.sprintf "word 0x%x" addr) 0
         (Mem.read32 m addr);
       Alcotest.(check int) (Printf.sprintf "byte 0x%x" addr) 0
         (Mem.read8 m addr))
    [ 0; page; Mem.sdram_base; Mem.default_size - 4 ];
  (* A write to one page leaves its neighbours zero. *)
  Mem.write32 m (page + 8) 0xDEADBEEF;
  Alcotest.(check int) "written" 0xDEADBEEF (Mem.read32 m (page + 8));
  Alcotest.(check int) "page below" 0 (Mem.read32 m (page - 4));
  Alcotest.(check int) "same page, other word" 0 (Mem.read32 m page);
  Alcotest.(check int) "page above" 0 (Mem.read32 m (2 * page));
  (* Fresh memories never see each other's writes. *)
  Alcotest.(check int) "second memory" 0
    (Mem.read32 (Mem.create ()) (page + 8))

let test_cross_page_access () =
  let m = Mem.create () in
  let edge = 3 * page in
  Mem.write32 m (edge - 2) 0x11223344;
  Alcotest.(check int) "word across the edge" 0x11223344
    (Mem.read32 m (edge - 2));
  Alcotest.(check int) "low page half" 0x1122 (Mem.read16 m (edge - 2));
  Alcotest.(check int) "high page half" 0x3344 (Mem.read16 m edge);
  Mem.write16 m (edge - 1) 0xABCD;
  Alcotest.(check int) "half across the edge" 0xABCD
    (Mem.read16 m (edge - 1));
  Alcotest.(check int) "bytes either side" 0x11AB_CD44
    (Mem.read32 m (edge - 2));
  Mem.write32 m (edge - 3) 0xCAFEF00D;
  Alcotest.(check int) "word 3+1 across the edge" 0xCAFEF00D
    (Mem.read32 m (edge - 3));
  Alcotest.(check int) "its last byte" 0x0D (Mem.read8 m edge)

let test_bus_error_odd_size () =
  (* A size that ends inside a page: bounds follow the size, not the
     page it ends in. *)
  let size = page + 6 in
  let m = Mem.create ~size () in
  Mem.write16 m (size - 2) 0xBEEF;
  Alcotest.(check int) "last half" 0xBEEF (Mem.read16 m (size - 2));
  Alcotest.(check int) "last byte" 0xEF (Mem.read8 m (size - 1));
  Alcotest.check_raises "byte at size" (Mem.Bus_error size)
    (fun () -> ignore (Mem.read8 m size));
  Alcotest.check_raises "word straddling size" (Mem.Bus_error (size - 2))
    (fun () -> ignore (Mem.read32 m (size - 2)));
  Alcotest.check_raises "half straddling size" (Mem.Bus_error (size - 1))
    (fun () -> Mem.write16 m (size - 1) 0);
  Alcotest.check_raises "word write past size" (Mem.Bus_error (size - 3))
    (fun () -> Mem.write32 m (size - 3) 0x01020304);
  Alcotest.(check int) "a refused write changes nothing" 0xBEEF
    (Mem.read16 m (size - 2));
  Alcotest.(check int) "peek past size" 0 (Mem.peek32 m (size - 2))

let () =
  Alcotest.run "memory"
    [ ("memory",
       [ Alcotest.test_case "big endian" `Quick test_big_endian;
         Alcotest.test_case "byte write" `Quick test_byte_write_updates_word;
         Alcotest.test_case "half write" `Quick test_half_write;
         Alcotest.test_case "truncation" `Quick test_truncation;
         Alcotest.test_case "bus error" `Quick test_bus_error;
         Alcotest.test_case "peek" `Quick test_peek_never_raises;
         Alcotest.test_case "regions" `Quick test_regions;
         Alcotest.test_case "load image" `Quick test_load_image ]);
      ("paged",
       [ Alcotest.test_case "untouched reads zero" `Quick
           test_untouched_reads_zero;
         Alcotest.test_case "cross-page access" `Quick test_cross_page_access;
         Alcotest.test_case "bus error at odd size" `Quick
           test_bus_error_odd_size ]) ]
