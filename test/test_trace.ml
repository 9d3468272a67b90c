(* Trace construction: instruction-boundary records, delay-slot fusion,
   derived variables. *)

open Isa
module Var = Trace.Var
module Rec = Trace.Record

let code_base = 0x2000

let capture ?(fault = Cpu.Fault.none) ?(regs = []) insns =
  let items = List.map (fun i -> Asm.I i) insns @ [ Asm.I (Insn.Nop 1) ] in
  let image = Asm.assemble { Asm.origin = code_base; items } in
  let machine = Cpu.Machine.create ~fault () in
  Cpu.Machine.load_image machine image;
  Cpu.Machine.set_pc machine code_base;
  List.iter (fun (r, v) -> machine.Cpu.Machine.gpr.(r) <- v) regs;
  let records = ref [] in
  ignore
    (Trace.Runner.run ~observer:(fun r -> records := r :: !records) machine);
  List.rev !records

let v record var = Rec.get record (Var.insn_id var)
let post record d = Rec.get record (Var.post_id d)
let orig record d = Rec.get record (Var.orig_id d)

let check = Alcotest.(check int)
let nth = List.nth

let test_linear_pcs () =
  let records = capture [ Insn.Alui (Insn.Addi, 3, 0, 1) ] in
  let r = nth records 0 in
  Alcotest.(check string) "point" "l.addi" r.Rec.point;
  check "orig PC" code_base (orig r Var.Pc);
  check "orig NPC" (code_base + 4) (orig r Var.Npc);
  check "post PC" (code_base + 4) (post r Var.Pc);
  check "post NPC" (code_base + 8) (post r Var.Npc);
  check "post NNPC" (code_base + 12) (post r Var.Nnpc)

let test_operand_variables () =
  let records = capture ~regs:[ (1, 30); (2, 12) ] [ Insn.Alu (Insn.Add, 3, 1, 2) ] in
  let r = nth records 0 in
  check "OPA" 30 (v r Var.Opa);
  check "OPB" 12 (v r Var.Opb);
  check "DEST" 42 (v r Var.Dest);
  check "REGD" 3 (v r Var.Regd);
  check "REGA" 1 (v r Var.Rega);
  check "REGB" 2 (v r Var.Regb);
  check "post GPR3" 42 (post r (Var.Gpr 3));
  check "orig GPR3" 0 (orig r (Var.Gpr 3))

let test_ir_matches_memory () =
  let records = capture [ Insn.Alui (Insn.Addi, 3, 0, 7) ] in
  let r = nth records 0 in
  check "IR = MEM_AT_PC" (v r Var.Mem_at_pc) (v r Var.Ir);
  check "OPCODE" 0x27 (v r Var.Opcode)

let test_fusion () =
  (* jump + delay slot fuse into one record at the jump's point. *)
  let records = capture
      [ Insn.Jump 2;                   (* to code_base + 8 *)
        Insn.Alui (Insn.Addi, 3, 3, 1);(* delay slot *)
        Insn.Alui (Insn.Addi, 4, 4, 1) ]
  in
  let r = nth records 0 in
  Alcotest.(check string) "fused point" "l.j" r.Rec.point;
  check "post PC = target" (code_base + 8) (post r Var.Pc);
  (* the delay slot's register effect is visible in the fused post state *)
  check "delay effect merged" 1 (post r (Var.Gpr 3));
  Alcotest.(check string) "next record" "l.addi" (nth records 1).Rec.point

let test_untaken_branch_fuses_too () =
  let records = capture
      [ Insn.Branch_flag 2;            (* flag clear: not taken *)
        Insn.Alui (Insn.Addi, 3, 3, 1) ]
  in
  let r = nth records 0 in
  Alcotest.(check string) "point" "l.bf" r.Rec.point;
  check "fallthrough PC" (code_base + 8) (post r Var.Pc);
  check "delay effect" 1 (post r (Var.Gpr 3))

let test_exception_vars_syscall () =
  let records = capture [ Insn.Sys 5 ] in
  let r = nth records 0 in
  Alcotest.(check string) "point" "l.sys" r.Rec.point;
  check "EXN" 1 (v r Var.Exn);
  check "VEC" 0xC00 (v r Var.Vec);
  check "post PC at vector" 0xC00 (post r Var.Pc);
  check "EPCR_D" 4 (v r Var.Epcr_d);
  check "DSX_OK" 1 (v r Var.Dsx_ok);
  check "post ESR = orig SR" (orig r Var.Sr_full) (post r Var.Esr)

let test_delay_slot_exception_gets_own_record () =
  let records = capture [ Insn.Jump 2; Insn.Sys 1; Insn.Nop 0 ] in
  (* Fused l.j record plus a dedicated l.sys record. *)
  Alcotest.(check string) "first is the jump" "l.j" (nth records 0).Rec.point;
  Alcotest.(check string) "second is the syscall" "l.sys" (nth records 1).Rec.point;
  let sys = nth records 1 in
  check "DSX in effect" 1 (post sys Var.Dsx);
  check "DSX_OK" 1 (v sys Var.Dsx_ok);
  (* EPCR = branch address; relative to the syscall it is -4. *)
  check "EPCR_D = -4 (mod 2^32)" 0xFFFF_FFFC (v sys Var.Epcr_d)

let test_illegal_point () =
  let items = [ Asm.Word 0xEC00_0000; Asm.I (Insn.Nop 1) ] in
  let image = Asm.assemble { Asm.origin = code_base; items } in
  let machine = Cpu.Machine.create () in
  Cpu.Machine.load_image machine image;
  Cpu.Machine.set_pc machine code_base;
  let records = ref [] in
  let config = { Trace.Runner.default_config with max_steps = 3 } in
  ignore (Trace.Runner.run ~config
            ~observer:(fun r -> records := r :: !records) machine);
  match List.rev !records with
  | r :: _ ->
    Alcotest.(check string) "dedicated point" "illegal" r.Rec.point;
    check "VEC" 0x700 (v r Var.Vec)
  | [] -> Alcotest.fail "no record"

let test_setflag_derived () =
  let records = capture ~regs:[ (1, 10); (2, 3) ] [ Insn.Setflag (Insn.Sfltu, 1, 2) ] in
  let r = nth records 0 in
  check "CMPDIFF_U" 7 (v r Var.Cmpdiff_u);
  check "SF" 0 (post r Var.Sf);
  check "PROD_U = diff * (1-2*0)" 7 (v r Var.Prod_u);
  check "CMPZ" 0 (v r Var.Cmpz);
  let records = capture ~regs:[ (1, 3); (2, 10) ] [ Insn.Setflag (Insn.Sfltu, 1, 2) ] in
  let r = nth records 0 in
  check "negative diff" (-7) (v r Var.Cmpdiff_u);
  check "SF taken" 1 (post r Var.Sf);
  check "PROD_U still >= 0" 7 (v r Var.Prod_u);
  (* Operands straddling the sign bit (b6's trigger shape): the unsigned
     difference must be the wrapped 32-bit value. Raw OCaml subtraction
     here once leaked values outside the 32-bit range entirely
     (5 - 0x8000_0010 = -2147483659 < -2^31). *)
  let big = 0x8000_0010 in
  let records = capture ~regs:[ (1, 5); (2, big) ] [ Insn.Setflag (Insn.Sfltu, 1, 2) ] in
  let r = nth records 0 in
  check "SF across the sign bit" 1 (post r Var.Sf);
  check "CMPDIFF_U wraps to 32 bits" 0x7FFF_FFF5 (v r Var.Cmpdiff_u);
  check "PROD_U boundary" (-0x7FFF_FFF5) (v r Var.Prod_u);
  let records = capture ~regs:[ (1, big); (2, 5) ] [ Insn.Setflag (Insn.Sfltu, 1, 2) ] in
  let r = nth records 0 in
  check "SF big operand first" 0 (post r Var.Sf);
  check "CMPDIFF_U wrapped negative" (-0x7FFF_FFF5) (v r Var.Cmpdiff_u)

let test_signed_compare_derived () =
  let big = 0x8000_0000 in
  let records = capture ~regs:[ (1, big); (2, 1) ] [ Insn.Setflag (Insn.Sflts, 1, 2) ] in
  let r = nth records 0 in
  check "CMPDIFF_S" (Util.U32.signed big - 1) (v r Var.Cmpdiff_s);
  check "SF (negative < 1)" 1 (post r Var.Sf);
  Alcotest.(check bool) "PROD_S positive" true (v r Var.Prod_s > 0)

let test_ext_vars () =
  let records = capture ~regs:[ (1, 0x8000); (2, 0xF5) ]
      [ Insn.Store (Insn.Sb, 1, 1, 2);
        Insn.Load (Insn.Lbs, 3, 1, 1) ] in
  let r = nth records 1 in
  check "EXT_SIGN" 1 (v r Var.Ext_sign);
  check "EXT_HI replicates" 0xFF_FFFF (v r Var.Ext_hi)

let test_ea_ref () =
  let records = capture ~regs:[ (1, 0x8000); (2, 7) ]
      [ Insn.Store (Insn.Sw, 12, 1, 2) ] in
  let r = nth records 0 in
  check "EA" 0x800C (v r Var.Ea);
  check "EA_REF" 0x800C (v r Var.Ea_ref);
  check "MEMBUS" 7 (v r Var.Membus)

let test_spr_vars () =
  let records = capture ~regs:[ (1, 0x1234) ]
      [ Insn.Mtspr (0, 1, Spr.address Spr.Eear0);
        Insn.Mfspr (2, 0, Spr.address Spr.Eear0) ] in
  let wr = nth records 0 and rd = nth records 1 in
  check "orig(SPR) before write" 0 (v wr Var.Spr_orig);
  check "SPR after write" 0x1234 (v wr Var.Spr_post);
  check "read sees value" 0x1234 (v rd Var.Spr_post);
  check "DEST = SPR" (v rd Var.Spr_post) (v rd Var.Dest)

let test_mask_applicability () =
  let records = capture ~regs:[ (1, 3); (2, 4) ] [ Insn.Alu (Insn.Add, 3, 1, 2) ] in
  let r = nth records 0 in
  Alcotest.(check bool) "EA masked off for ALU" false
    r.Rec.mask.(Var.insn_id Var.Ea);
  Alcotest.(check bool) "OPA on" true r.Rec.mask.(Var.insn_id Var.Opa);
  Alcotest.(check bool) "PROD masked off" false
    r.Rec.mask.(Var.insn_id Var.Prod_u)

let test_determinism () =
  let t1 = capture ~regs:[ (1, 5) ] [ Insn.Alui (Insn.Addi, 2, 1, 3) ] in
  let t2 = capture ~regs:[ (1, 5) ] [ Insn.Alui (Insn.Addi, 2, 1, 3) ] in
  Alcotest.(check int) "same length" (List.length t1) (List.length t2);
  List.iter2
    (fun a b ->
       Alcotest.(check bool) "identical record" true
         (a.Rec.point = b.Rec.point && a.Rec.values = b.Rec.values))
    t1 t2

(* ---- trace identity pin ---- *)

(* One chained digest over every record (point, values, mask) and every
   outcome of: the 17 workloads streamed under the default config, the
   17 Table 1 bug triggers on their faulty processors, and eight fuzz
   triggers each under a generated mutant. The constant was computed
   before machine memory became paged; any change to what the simulator
   and fuser emit (memory semantics included) moves it. *)
let trace_identity_pin = "10fb753e9c1e60bcf33e67f340e1fdb7"

let trace_identity () =
  let h = ref (Digest.string "") and n = ref 0 in
  let buf = Buffer.create 2048 in
  let chain f =
    Buffer.clear buf;
    Buffer.add_string buf !h;
    f buf;
    h := Digest.string (Buffer.contents buf)
  in
  let record (r : Rec.t) =
    incr n;
    chain (fun b ->
        Buffer.add_string b r.Rec.point;
        Buffer.add_char b '|';
        Array.iter
          (fun v -> Buffer.add_string b (string_of_int v); Buffer.add_char b ',')
          r.Rec.values;
        Array.iter (fun m -> Buffer.add_char b (if m then '1' else '0'))
          r.Rec.mask)
  in
  let outcome name o =
    chain (fun b ->
        Buffer.add_string b name;
        Buffer.add_string b
          (match o with
           | `Halted Cpu.Machine.Exit -> "exit"
           | `Halted Cpu.Machine.Stalled -> "stalled"
           | `Halted Cpu.Machine.Double_fault -> "double fault"
           | `Max_steps -> "max steps"))
  in
  List.iter
    (fun (w : Workloads.Rt.t) ->
       outcome w.name
         (Trace.Runner.stream ~tick_period:w.tick_period ~entry:w.entry
            ~observer:record w.image))
    Workloads.Suite.all;
  let faulty name fault (w : Workloads.Rt.t) =
    let records, o =
      Trace.Runner.capture
        ~config:{ Trace.Runner.default_config with
                  max_steps = Sci.Identify.trigger_max_steps }
        ~fault
        ~tick_period:w.tick_period ~entry:w.entry w.image
    in
    List.iter record records;
    outcome name o
  in
  List.iter
    (fun (b : Bugs.Registry.t) -> faulty b.id b.fault b.trigger)
    Bugs.Table1.all;
  List.iteri
    (fun index (m : Bugs.Mutant.t) ->
       faulty m.id m.fault (Fuzz.Gen.candidate ~seed:42 ~index))
    (Bugs.Mutant.generate ~seed:42 ~count:8);
  (Digest.to_hex !h, !n)

let test_trace_identity () =
  let digest, n = trace_identity () in
  Alcotest.(check string)
    (Printf.sprintf "digest over %d records" n)
    trace_identity_pin digest

let () =
  Alcotest.run "trace"
    [ ("records",
       [ Alcotest.test_case "linear PCs" `Quick test_linear_pcs;
         Alcotest.test_case "operands" `Quick test_operand_variables;
         Alcotest.test_case "IR/MEM_AT_PC" `Quick test_ir_matches_memory;
         Alcotest.test_case "fusion" `Quick test_fusion;
         Alcotest.test_case "untaken branch fusion" `Quick test_untaken_branch_fuses_too;
         Alcotest.test_case "syscall vars" `Quick test_exception_vars_syscall;
         Alcotest.test_case "delay-slot exception" `Quick test_delay_slot_exception_gets_own_record;
         Alcotest.test_case "illegal point" `Quick test_illegal_point;
         Alcotest.test_case "setflag derived" `Quick test_setflag_derived;
         Alcotest.test_case "signed compare derived" `Quick test_signed_compare_derived;
         Alcotest.test_case "ext vars" `Quick test_ext_vars;
         Alcotest.test_case "ea_ref" `Quick test_ea_ref;
         Alcotest.test_case "spr vars" `Quick test_spr_vars;
         Alcotest.test_case "masks" `Quick test_mask_applicability;
         Alcotest.test_case "determinism" `Quick test_determinism ]);
      ("identity",
       [ Alcotest.test_case "record streams pinned" `Quick
           test_trace_identity ]) ]
