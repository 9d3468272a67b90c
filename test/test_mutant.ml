(* The seeded semantic-mutant generator and the mutant-at-scale campaign:
   determinism, §5.5 classification, fault purity (stateless hooks), and
   the compiled-vs-interpretive equality over fuzz-generated triggers
   with injected mutants. *)

module Mutant = Bugs.Mutant
module Registry = Bugs.Registry
module Pipeline = Scifinder_core.Pipeline

let sig_of (m : Mutant.t) =
  Printf.sprintf "%s|%s|%s|%s" m.id (Mutant.kind_name m.kind)
    (Registry.category_name m.category) m.synopsis

(* ---- generation determinism ---- *)

let test_generate_deterministic () =
  let a = Mutant.generate ~seed:7 ~count:24
  and b = Mutant.generate ~seed:7 ~count:24 in
  Alcotest.(check (list string)) "same stream" (List.map sig_of a)
    (List.map sig_of b);
  let c = Mutant.generate ~seed:8 ~count:24 in
  Alcotest.(check bool) "different seed differs" true
    (List.map sig_of a <> List.map sig_of c)

let test_generate_prefix_stable () =
  let short = Mutant.generate ~seed:7 ~count:8
  and long = Mutant.generate ~seed:7 ~count:16 in
  Alcotest.(check (list string)) "prefix agrees" (List.map sig_of short)
    (List.map sig_of (List.filteri (fun i _ -> i < 8) long))

let test_all_categories_covered () =
  let muts = Mutant.generate ~seed:3 ~count:24 in
  let cats =
    List.sort_uniq compare
      (List.map (fun (m : Mutant.t) -> Registry.category_name m.category)
         muts)
  in
  Alcotest.(check (list string)) "all six classes"
    [ "CF"; "CR"; "IE"; "MA"; "RU"; "XR" ] cats

let test_kind_classification () =
  Alcotest.(check string) "wrong-result is CR" "CR"
    (Registry.category_name (Mutant.category_of_kind Mutant.Wrong_result));
  Alcotest.(check string) "skipped-writeback is IE" "IE"
    (Registry.category_name (Mutant.category_of_kind Mutant.Skipped_writeback));
  Alcotest.(check string) "exception-entry is XR" "XR"
    (Registry.category_name (Mutant.category_of_kind Mutant.Exception_entry));
  Alcotest.(check string) "memory-address is MA" "MA"
    (Registry.category_name (Mutant.category_of_kind Mutant.Memory_address));
  Alcotest.(check string) "privilege is RU" "RU"
    (Registry.category_name (Mutant.category_of_kind Mutant.Privilege))

(* ---- fault purity: hooks are stateless closures ---- *)

let trace_digest records =
  let b = Buffer.create 4096 in
  List.iter
    (fun (r : Trace.Record.t) ->
       Buffer.add_string b r.Trace.Record.point;
       Array.iter (fun v -> Buffer.add_string b (string_of_int v))
         r.Trace.Record.values;
       Array.iter (fun m -> Buffer.add_char b (if m then '1' else '0'))
         r.Trace.Record.mask)
    records;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_fault_capture_deterministic () =
  let trigger = Fuzz.Gen.candidate ~seed:3 ~index:0 in
  List.iter
    (fun (m : Mutant.t) ->
       let once =
         trace_digest (Sci.Identify.capture_trigger ~fault:m.fault trigger)
       and twice =
         trace_digest (Sci.Identify.capture_trigger ~fault:m.fault trigger)
       in
       Alcotest.(check string) (m.id ^ " capture is pure") once twice)
    (Mutant.generate ~seed:3 ~count:8)

(* A healthy share of mutants must actually perturb ISA-visible behaviour
   on at least one of a couple of fuzz triggers. *)
let test_mutants_perturb_behaviour () =
  let triggers =
    [ Fuzz.Gen.candidate ~seed:3 ~index:0;
      Fuzz.Gen.candidate ~seed:3 ~index:1 ]
  in
  let clean = List.map (fun w -> trace_digest (Sci.Identify.capture_trigger w)) triggers in
  let muts = Mutant.generate ~seed:3 ~count:24 in
  let perturbed =
    List.filter
      (fun (m : Mutant.t) ->
         List.exists2
           (fun w c ->
              trace_digest (Sci.Identify.capture_trigger ~fault:m.fault w)
              <> c)
           triggers clean)
      muts
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d/24 mutants perturb" (List.length perturbed))
    true
    (List.length perturbed >= 6)

(* ---- compiled == interpretive over fuzz triggers + injected mutants ---- *)

(* Mine a small real battery from the first corpus workload, then check
   that the compiled monitor reproduces the interpretive oracle's firing
   sequence on buggy traces of fuzz-generated programs. *)
let mined_battery =
  lazy
    (let w = List.hd Workloads.Suite.all in
     let engine = Daikon.Engine.create () in
     ignore
       (Trace.Runner.stream ~tick_period:w.Workloads.Rt.tick_period
          ~entry:w.Workloads.Rt.entry
          ~observer:(Daikon.Engine.observe engine) w.Workloads.Rt.image);
     let invs = Daikon.Engine.invariants engine in
     Assertions.Ovl.of_invariants
       (List.filteri (fun i _ -> i < 400) invs))

let test_compiled_matches_on_mutant_traces () =
  let battery = Lazy.force mined_battery in
  let compiled = Assertions.Compile.compile battery in
  let muts = Array.of_list (Mutant.generate ~seed:11 ~count:10) in
  let keys firings =
    List.map
      (fun (f : Assertions.Monitor.firing) ->
         (f.assertion.Assertions.Ovl.name, f.Assertions.Monitor.step))
      firings
  in
  for i = 0 to 9 do
    let w = Fuzz.Gen.candidate ~seed:11 ~index:i in
    let m = muts.(i) in
    let buggy = Sci.Identify.capture_trigger ~fault:m.Mutant.fault w in
    let fi = keys (Assertions.Monitor.run battery buggy) in
    let fc = keys (Assertions.Compile.run compiled buggy) in
    Alcotest.(check (list (pair string int)))
      (Printf.sprintf "%s on %s" m.Mutant.id w.Workloads.Rt.name) fi fc
  done

(* ---- campaign smoke: small but end-to-end ---- *)

let test_campaign_deterministic () =
  let battery = Lazy.force mined_battery in
  let sci =
    List.map (fun (a : Assertions.Ovl.t) -> a.Assertions.Ovl.invariant)
      battery
  in
  let run () =
    Pipeline.campaign ~seed:9 ~mutants:16 ~triggers:6 ~tries:2 ~sci ()
  in
  let c1 = run () and c2 = run () in
  Alcotest.(check string) "fingerprint stable" c1.Pipeline.fingerprint
    c2.Pipeline.fingerprint;
  Alcotest.(check int) "all outcomes reported" 16
    (List.length c1.Pipeline.outcomes);
  Alcotest.(check int) "classes partition the mutants" 16
    (List.fold_left
       (fun acc (cl : Pipeline.campaign_class) -> acc + cl.class_total)
       0 c1.Pipeline.classes);
  List.iter
    (fun (o : Pipeline.mutant_outcome) ->
       Alcotest.(check bool) "latency iff detected" o.detected
         (o.latency >= 0))
    c1.Pipeline.outcomes;
  Alcotest.(check int) "detected totals agree" c1.Pipeline.detected_total
    c2.Pipeline.detected_total

(* ---- live scans: the monitor riding the simulator ---- *)

let firing_key = function
  | None -> None
  | Some (f : Assertions.Monitor.firing) ->
    Some (f.assertion.Assertions.Ovl.name, f.Assertions.Monitor.step)

(* For (mutant, trigger) pairs, with and without the trigger's clean-run
   mask: the early-exit live scan finds the same first firing (assertion
   and step) as the list scan over the whole captured trace, and the
   live fired set equals the list one. *)
let qcheck_live_equals_list =
  let compiled = lazy (Assertions.Compile.compile (Lazy.force mined_battery)) in
  let muts = lazy (Array.of_list (Mutant.generate ~seed:5 ~count:40)) in
  let config = Sci.Identify.trigger_config in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"live first firing == list first firing"
       QCheck.(triple (int_bound 39) (int_bound 23) bool)
       (fun (mi, ti, masked) ->
          let compiled = Lazy.force compiled in
          let m = (Lazy.force muts).(mi) in
          let w = Fuzz.Gen.candidate ~seed:5 ~index:ti in
          let clean = Sci.Identify.capture_trigger w in
          let clean_fired = Assertions.Compile.fired_set compiled clean in
          let live_fired =
            Assertions.Compile.fired_set_live ~config compiled
              (Sci.Identify.trigger_machine w)
          in
          let ignore = if masked then Some clean_fired else None in
          let listed =
            Assertions.Compile.first_firing ?ignore compiled
              (Sci.Identify.capture_trigger ~fault:m.Mutant.fault w)
          and live =
            Assertions.Compile.first_firing_live ?ignore ~config compiled
              (Sci.Identify.trigger_machine ~fault:m.Mutant.fault w)
          in
          live_fired = clean_fired && firing_key live = firing_key listed))

(* The full-size campaign over the identified SCI battery, as
   [scifinder campaign] runs it: its pinned answer must not depend on
   the number of domains. *)
let test_campaign_pinned_any_jobs () =
  let invariants = Pipeline.mine_invariants ~jobs:2 () in
  let opt = Pipeline.optimize invariants in
  let ident =
    Pipeline.identify
      ~invariants:opt.Pipeline.result.Invopt.Pipeline.optimized
      Bugs.Table1.all
  in
  let sci = ident.Pipeline.summary.Sci.Identify.unique_sci in
  List.iter
    (fun jobs ->
       let c = Pipeline.campaign ~jobs ~sci () in
       Alcotest.(check string)
         (Printf.sprintf "fingerprint at jobs=%d" jobs)
         "05410b8b9e7cbc6ba762f03d9bf0159d" c.Pipeline.fingerprint;
       Alcotest.(check (pair int int))
         (Printf.sprintf "detected at jobs=%d" jobs)
         (72, 200) (c.Pipeline.detected_total, c.Pipeline.mutant_total))
    [ 1; 2 ]

let () =
  Alcotest.run "mutant"
    [ ("generate",
       [ Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
         Alcotest.test_case "prefix stable" `Quick test_generate_prefix_stable;
         Alcotest.test_case "all categories" `Quick test_all_categories_covered;
         Alcotest.test_case "classification" `Quick test_kind_classification ]);
      ("faults",
       [ Alcotest.test_case "capture pure" `Quick
           test_fault_capture_deterministic;
         Alcotest.test_case "perturbs behaviour" `Quick
           test_mutants_perturb_behaviour ]);
      ("campaign",
       [ Alcotest.test_case "compiled == interpretive on mutants" `Quick
           test_compiled_matches_on_mutant_traces;
         Alcotest.test_case "deterministic" `Quick
           test_campaign_deterministic;
         Alcotest.test_case "pinned answer at jobs 1 and 2" `Quick
           test_campaign_pinned_any_jobs ]);
      ("live",
       [ qcheck_live_equals_list ]) ]
