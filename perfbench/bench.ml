(* The SCIFinder benchmark: four user workloads through the public APIs.

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--size tiny]
     bench.exe --smoke

   --trace 0 measures the end-to-end metrics with the library's public
   operations. --trace 1 rebuilds each operation from public layer calls,
   wraps a span around every call (Pbtrace) and reports the per-layer
   ledger. Every answer is checked against a pin (Pins) or, for an
   unpinned workload/seed pair, against a jobs=1 reference computed
   during set-up. The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. See README.md. *)

module P = Scifinder_core.Pipeline
module E = Daikon.Engine
module Tr = Pbtrace

let pf = Printf.printf
let md5 s = Digest.to_hex (Digest.string s)
let jobs = Util.Parallel.default_jobs ()
let recommended = Domain.recommended_domain_count ()

(* ---- Arguments and sizes ---- *)

type size = Full | Tiny

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  size : size;
  work : string;  (* scratch directory, relative to the checkout *)
}

let workload_names = [ "corpus-cold"; "lake-sharded"; "serve-warm"; "campaign" ]

let corpus_names = function
  | Full -> (Workloads.Suite.figure3_groups, Workloads.Suite.figure3_labels)
  | Tiny -> ([ [ "helloworld" ]; [ "pi"; "bitcount" ] ], [ "hello"; "misc" ])

(* The lake: the corpus a coverage-guided fuzz campaign accepts
   (fuzz seed [lake_fuzz_seed], [lake_budget] candidates, minimized),
   recorded by [Pipeline.record_lake] with one segment per program:
   what [scifinder fuzz --seed 1 --budget 200 --lake DIR] writes. The
   lake does not depend on --seed: fuzz lakes of seeds 1-4 held 12.8k to
   18k records in 13 to 21 segments and took 1.8 to 3.1 s to mine, a
   spread from seed to seed wider than the benchmark's bound. *)
let lake_fuzz_seed = 1
let lake_budget = function Full -> 200 | Tiny -> 24
let campaign_seed = 42
let campaign_shape = function Full -> (200, 48) | Tiny -> (12, 4)
let setup_reps = function Full -> 3 | Tiny -> 1

let resolve name =
  match Workloads.Suite.by_name name with
  | Some w -> w
  | None -> invalid_arg ("unknown workload " ^ name)

(* ---- Answers ---- *)

type answer = (string * string) list

let inv_digest invs =
  md5 (String.concat "\n" (List.map Invariant.Expr.to_string invs))

let rows_string rows =
  String.concat ";"
    (List.map
       (fun (r : P.figure3_row) ->
          Printf.sprintf "%s:%d:%d:%d:%d" r.group_label r.unmodified r.fresh
            r.deleted r.total)
       rows)

(* The fields of [got] named by [want] must agree; extra fields of
   [got] are informational. *)
let mismatches ~(want : answer) (got : answer) =
  List.filter_map
    (fun (k, v) ->
       match List.assoc_opt k got with
       | Some v' when String.equal v v' -> None
       | Some v' -> Some (Printf.sprintf "%s: want %s, got %s" k v v')
       | None -> Some (Printf.sprintf "%s: missing" k))
    want

(* A reference answer, and whether it came from a pin. Every check
   failure is reported on stderr once per distinct message. *)
let reported = Hashtbl.create 8

let check ~what ~want got =
  match mismatches ~want got with
  | [] -> true
  | errs ->
    List.iter
      (fun e ->
         let line = what ^ ": " ^ e in
         if not (Hashtbl.mem reported line) then begin
           Hashtbl.add reported line ();
           prerr_endline ("perfbench: wrong answer, " ^ line)
         end)
      errs;
    false

(* ---- Statistics ---- *)

let median l =
  match List.sort Float.compare l with
  | [] -> Float.nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quantile l q =
  match List.sort Float.compare l with
  | [] -> Float.nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))

(* The highest of a fixed ladder of percentiles with at least ten
   samples beyond it, never below the median. *)
let tail l =
  let n = float_of_int (List.length l) in
  let q =
    List.find_opt
      (fun q -> n *. (1. -. q) >= 10.)
      [ 0.999; 0.99; 0.95; 0.9; 0.75 ]
  in
  match q with
  | Some q -> (q, quantile l q)
  | None -> (0.5, median l)

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1e6
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
         let rec go () =
           match input_line ic with
           | exception End_of_file -> Float.nan
           | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
             Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                 float_of_int kb /. 1024.)
           | _ -> go ()
         in
         go ())

(* The machine's steal and busy CPU ticks so far, from /proc/stat: on a
   shared virtual machine, steal is time the host gave to others while
   this machine had work to run. *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
         match
           String.split_on_char ' ' (input_line ic)
           |> List.filter (( <> ) "")
         with
         | "cpu" :: user :: nice :: sys :: _idle :: _iowait :: irq :: softirq
           :: steal :: _ ->
           let t = List.map int_of_string [ user; nice; sys; irq; softirq ] in
           Some (int_of_string steal, List.fold_left ( + ) 0 t)
         | _ -> None
         | exception (End_of_file | Failure _) -> None)

(* The share of the CPU time this machine wanted between two readings
   that the host gave to others; 0 where /proc/stat is not there. *)
let steal_share before after =
  match (before, after) with
  | Some (s0, b0), Some (s1, b1) when s1 - s0 + b1 - b0 > 0 ->
    float_of_int (s1 - s0) /. float_of_int (s1 - s0 + b1 - b0)
  | _ -> 0.

let now_s () = float_of_int (Tr.now_ns ()) /. 1e9

(* A clock reading: wall time and CPU ticks. *)
let mark () = (now_s (), cpu_ticks ())

(* The time since [mark] with the host's steal taken out: the elapsed
   wall time times the share of the wanted CPU time the machine was
   given. Without steal it is the wall time. *)
let since (t0, c0) = (now_s () -. t0) *. (1. -. steal_share c0 (cpu_ticks ()))

let timed f =
  let m = mark () in
  let v = f () in
  (v, since m)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ---- Samples and the per-layer ledger ---- *)

type sample = { lat : float; records : int; ok : bool }

(* One traced operation's ledger: layer metric name -> value. *)
type ledger = (string * float) list

let layer_metrics =
  [ ("runner.ns_per_record", "ns");
    ("runner.records", "count");
    ("runner.minor_words_per_record", "words");
    ("runner.decode_cache_hit_ratio", "ratio");
    ("segment.decode_ns_per_record", "ns");
    ("segment.bytes_per_record", "bytes");
    ("segment.blocks", "count");
    ("segment.spans", "count");
    ("segment.span_skew", "ratio");
    ("engine.observe_ns_per_record", "ns");
    ("engine.observe_minor_words_per_record", "words");
    ("engine.pairs_born", "count");
    ("engine.pairs_live", "count");
    ("engine.live_ratio", "ratio");
    ("engine.points", "count");
    ("engine.merges", "count");
    ("engine.merge_ms", "ms");
    ("engine.extracts", "count");
    ("engine.extract_ms", "ms");
    ("engine.invariants", "count");
    ("engine.decode_ms", "ms");
    ("engine.encode_ms", "ms");
    ("engine.snapshot_bytes", "bytes");
    ("pipeline.shard_hit_ratio", "ratio");
    ("pipeline.self_ms", "ms");
    ("parallel.jobs", "count");
    ("parallel.recommended", "count");
    ("parallel.speedup", "ratio");
    ("parallel.shard_skew", "ratio");
    ("compile.ms", "ms");
    ("monitor.ns_per_record", "ns");
    ("monitor.records_per_mutant", "records");
    ("mutant.generate_us", "us");
    ("frame.decode_ns", "ns");
    ("proto.decode_ns", "ns");
    ("proto.encode_ns", "ns");
    ("scheduler.wait_ms_p50", "ms");
    ("scheduler.run_ms_p50", "ms");
    ("scheduler.busy", "count");
    ("server.overhead_ms", "ms");
    ("gc.major_per_op", "count");
    ("gc.minor_words_per_record", "words");
    ("trace.overhead_frac", "ratio");
    ("trace.span_coverage", "ratio") ]

(* Counts that must repeat exactly from one traced operation to the
   next. *)
let exact_counts =
  [ "runner.records"; "segment.blocks"; "segment.spans"; "engine.pairs_born";
    "engine.pairs_live"; "engine.points"; "engine.merges"; "engine.extracts";
    "engine.invariants"; "engine.snapshot_bytes" ]

let ms ns = float_of_int ns /. 1e6
let per a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let pair_stats engine =
  List.fold_left
    (fun (born, live) (fs : E.family_stats) ->
       match fs.family with
       | "relation" | "diff" | "scale" -> (born + fs.born, live + fs.live)
       | _ -> (born, live))
    (0, 0) (E.candidate_stats engine)

let engine_ledger engine ~invariants =
  let born, live = pair_stats engine in
  [ ("engine.pairs_born", float_of_int born);
    ("engine.pairs_live", float_of_int live);
    ("engine.live_ratio", per live born);
    ("engine.points", float_of_int (E.point_count engine));
    ("engine.invariants", float_of_int invariants) ]

(* Ledger entries every traced operation derives from the span totals
   the same way: observe cost, merges, extracts, codec, allocation. *)
let common_ledger ~records ~op_ns ~op_words ~self_ns ~majors =
  let obs = Tr.total "engine.observe" in
  let merge = Tr.total "engine.merge" in
  let extract = Tr.total "engine.extract" in
  let decode = Tr.total "engine.decode" in
  [ ("engine.observe_ns_per_record", per obs.ns obs.tcalls);
    ("engine.observe_minor_words_per_record", per obs.twords obs.tcalls);
    ("engine.merges", float_of_int merge.tcalls);
    ("engine.merge_ms", ms merge.ns);
    ("engine.extracts", float_of_int extract.tcalls);
    ("engine.extract_ms", ms extract.ns);
    ("engine.decode_ms", ms decode.ns);
    ("pipeline.self_ms", ms self_ns);
    ("gc.major_per_op", float_of_int majors);
    ("gc.minor_words_per_record",
     per (op_words + Atomic.get Tr.worker_words) records);
    ("trace.span_coverage",
     if op_ns = 0 then 0. else 1. -. (float_of_int self_ns /. float_of_int op_ns)) ]

let majors () = (Gc.quick_stat ()).Gc.major_collections

(* Run [f] as one traced operation: reset the span totals, open the
   operation span, and hand [f]'s ledger the operation's own time and
   allocation. [f] returns its answer as a thunk, forced off the
   clock. *)
let traced_op name f =
  Tr.reset ();
  let m0 = majors () in
  let w0 = Tr.minor_words () in
  let m = mark () in
  let t0 = Tr.now_ns () in
  let answer, build = Tr.with_ ~attrs:[ ("workload", Obs.Sink.S name) ] "op" f in
  let op_ns = Tr.now_ns () - t0 in
  let secs = since m in
  let op_words = Tr.minor_words () - w0 in
  let majors = majors () - m0 in
  (* Work that only checks the answer (a digest's encode) runs after
     the operation's clock has stopped. *)
  let answer = answer () in
  let ledger = build ~op_ns ~op_words ~majors in
  (answer, secs, ledger)

(* Direct layer children of the operation span; what is left of the
   operation is the pipeline's own glue (diffing rows, bookkeeping). *)
let self_ns ~op_ns children =
  op_ns - List.fold_left (fun a n -> a + (Tr.total n).ns) 0 children

(* ---- Fold a running machine or a segment span into an engine ---- *)

(* Simulate one workload on a fresh machine, observing every record into
   [engine] with the observation timed on its own: the enclosing
   [runner] span's self time is simulation and fusion. *)
let run_into_engine engine (w : Workloads.Rt.t) =
  E.set_workload engine w.name;
  let machine = Cpu.Machine.create ~tick_period:w.tick_period () in
  Cpu.Machine.load_image machine w.image;
  Cpu.Machine.set_pc machine w.entry;
  Tr.with_ ~attrs:[ ("workload", Obs.Sink.S w.name) ] "runner" (fun () ->
      let obs = Tr.agg "engine.observe" in
      let n, _ =
        Trace.Runner.run_fold ~init:0
          ~f:(fun n r ->
              let w0 = Tr.minor_words () in
              let t0 = Tr.now_ns () in
              E.observe engine r;
              Tr.add obs ~ns:(Tr.now_ns () - t0) ~words:(Tr.minor_words () - w0);
              n + 1)
          machine
      in
      Tr.close_agg obs;
      let hits, misses, _ = Cpu.Machine.decode_cache_stats machine in
      (n, hits, misses))

let runner_ledger ~records ~hits ~misses =
  let run = Tr.total "runner" and obs = Tr.total "engine.observe" in
  [ ("runner.ns_per_record", per (run.ns - obs.ns) records);
    ("runner.records", float_of_int records);
    ("runner.minor_words_per_record", per (run.twords - obs.twords) records);
    ("runner.decode_cache_hit_ratio", per hits (hits + misses)) ]

let canon_set invs =
  let s = Hashtbl.create 65536 in
  List.iter (fun i -> Hashtbl.replace s (Invariant.Expr.canonical i) ()) invs;
  s

(* One Figure 3 row, diffed against the previous snapshot exactly as
   the pipeline does; the extraction is its own span. *)
let snapshot_row engine previous ~label : P.figure3_row =
  let invs = Tr.with_ "engine.extract" (fun () -> E.invariants engine) in
  let current = canon_set invs in
  let fresh = ref 0 and unmodified = ref 0 and deleted = ref 0 in
  Hashtbl.iter
    (fun k () -> if Hashtbl.mem !previous k then incr unmodified else incr fresh)
    current;
  Hashtbl.iter (fun k () -> if not (Hashtbl.mem current k) then incr deleted)
    !previous;
  previous := current;
  { group_label = label; unmodified = !unmodified; fresh = !fresh;
    deleted = !deleted; total = Hashtbl.length current }

let parallel_map f tasks =
  Tr.with_ "parallel.map" (fun () ->
      let parent = Tr.current () in
      Util.Parallel.map ~wrap:(Tr.on_worker parent) ~jobs f tasks)

let skew name =
  let t = Tr.total name in
  if t.spans = 0 || t.ns = 0 then 0.
  else float_of_int t.max_ns /. (float_of_int t.ns /. float_of_int t.spans)

(* ---- corpus-cold: cold mining of the Figure 3 corpus ---- *)

let corpus_programs size = List.concat (fst (corpus_names size))

let corpus_answer invariants : answer =
  [ ("invariants", inv_digest invariants);
    ("invariant_count", string_of_int (List.length invariants)) ]

(* The operation: what [scifinder mine] runs, the invariant set of the
   corpus with no Figure 3 snapshots. *)
let mine_corpus size ~jobs =
  corpus_answer (P.mine_invariants ~jobs ~names:(corpus_programs size) ())

(* The full Figure 3 mine: the answer with its rows and record count. *)
let mine_corpus_rows size ~jobs =
  let groups, labels = corpus_names size in
  let m = P.mine ~groups ~labels ~jobs () in
  ( corpus_answer m.invariants
    @ [ ("figure3", md5 (rows_string m.figure3));
        ("records", string_of_int m.record_count) ],
    m.record_count )

(* mine_invariants rebuilt from layer calls: every program on its own
   machine and engine on the pool, shards merged in corpus order into
   one engine, one extraction. *)
let traced_corpus size () =
  let shards =
    parallel_map
      (fun w ->
         let engine = E.create () in
         let n, hits, misses = run_into_engine engine w in
         (engine, n, hits, misses))
      (Array.of_list (List.map resolve (corpus_programs size)))
  in
  let acc = E.create () in
  Array.iter
    (fun (shard, _, _, _) -> Tr.with_ "engine.merge" (fun () -> E.merge_into acc shard))
    shards;
  let invariants = Tr.with_ "engine.extract" (fun () -> E.invariants acc) in
  let records = Array.fold_left (fun a (_, n, _, _) -> a + n) 0 shards in
  let hits = Array.fold_left (fun a (_, _, h, _) -> a + h) 0 shards in
  let misses = Array.fold_left (fun a (_, _, _, m) -> a + m) 0 shards in
  let answer () =
    corpus_answer invariants @ [ ("records", string_of_int records) ]
  in
  let build ~op_ns ~op_words ~majors =
    let self_ns =
      self_ns ~op_ns [ "parallel.map"; "engine.merge"; "engine.extract" ]
    in
    runner_ledger ~records ~hits ~misses
    @ engine_ledger acc ~invariants:(List.length invariants)
    @ common_ledger ~records ~op_ns ~op_words ~self_ns ~majors
    @ [ ("parallel.jobs", float_of_int jobs);
        ("parallel.shard_skew", skew "runner") ]
  in
  (answer, build)

(* ---- lake-sharded: a cold sharded mine over a recorded fuzz lake ---- *)

let lake_programs size =
  let initial = Fuzz.Coverage.of_workloads Workloads.Suite.all in
  Fuzz.Corpus.run ~initial ~seed:lake_fuzz_seed ~budget:(lake_budget size) ()
  |> Fuzz.Corpus.minimize |> Fuzz.Corpus.to_workloads

let record_fuzz_lake programs ~dir =
  rm_rf dir;
  let s =
    P.record_lake ~workloads:programs
      ~names:(List.map (fun (w : Workloads.Rt.t) -> w.name) programs)
      ~jobs ~dir ()
  in
  s.P.lake_records

let lake_answer ~digest ~invariants ~rows ~records : answer =
  [ ("engine", digest);
    ("invariants", inv_digest invariants);
    ("figure3", md5 (rows_string rows));
    ("records", string_of_int records) ]

let mine_lake ~jobs dir =
  let s = P.Session.create ~jobs () in
  let m, secs = timed (fun () -> P.Session.mine_lake s dir) in
  ( lake_answer ~digest:(P.Session.engine_digest s) ~invariants:m.invariants
      ~rows:m.figure3 ~records:m.record_count,
    m.record_count,
    secs )

(* The sharded replay of Session.mine_lake, rebuilt from Segment and
   Engine calls: plan byte-balanced block spans, fold each span into
   its own engine on the pool, merge in span order and snapshot one
   Figure 3 row per segment. *)
let traced_lake dir () =
  let segments = Trace.Segment.lake_segments dir in
  let spans =
    Tr.with_ "segment.plan" (fun () -> Trace.Segment.shard_spans ~jobs segments)
  in
  let shards =
    parallel_map
      (fun (sp : Trace.Segment.span) ->
         let engine = E.create () in
         let info =
           Tr.with_ "segment.fold_range" (fun () ->
               let obs = Tr.agg "engine.observe" in
               let (), info =
                 Trace.Segment.fold_range ~on_workload:(E.set_workload engine)
                   ~read_ahead:true ~scratch:(Trace.Segment.scratch ())
                   ~first_block:sp.sp_first ~last_block:sp.sp_last ~init:()
                   ~f:(fun () r ->
                       let w0 = Tr.minor_words () in
                       let t0 = Tr.now_ns () in
                       E.observe engine r;
                       Tr.add obs ~ns:(Tr.now_ns () - t0)
                         ~words:(Tr.minor_words () - w0))
                   sp.sp_path
               in
               Tr.close_agg obs;
               info)
         in
         (sp, engine, info))
      (Array.of_list spans)
  in
  let acc = E.create () in
  let previous = ref (Hashtbl.create 1) in
  let rows = ref [] and seg_workloads = ref [] in
  let n = Array.length shards in
  Array.iteri
    (fun i ((sp : Trace.Segment.span), shard, (info : Trace.Segment.info)) ->
       Tr.with_ "engine.merge" (fun () -> E.merge_into acc shard);
       List.iter
         (fun w -> if not (List.mem w !seg_workloads) then seg_workloads := w :: !seg_workloads)
         info.workloads;
       let seg_end =
         i + 1 = n
         ||
         let (next : Trace.Segment.span), _, _ = shards.(i + 1) in
         not (String.equal next.sp_path sp.sp_path)
       in
       if seg_end then begin
         let label = String.concat "+" (List.rev !seg_workloads) in
         rows := snapshot_row acc previous ~label :: !rows;
         seg_workloads := []
       end)
    shards;
  let rows = List.rev !rows in
  let invariants = Tr.with_ "engine.extract" (fun () -> E.invariants acc) in
  let records = Array.fold_left (fun a (_, _, (i : Trace.Segment.info)) -> a + i.records) 0 shards in
  let blocks = Array.fold_left (fun a (_, _, (i : Trace.Segment.info)) -> a + i.blocks) 0 shards in
  let bytes = Array.fold_left (fun a (_, _, (i : Trace.Segment.info)) -> a + i.bytes) 0 shards in
  let snap = lazy (Tr.with_ "engine.encode" (fun () -> E.encode acc)) in
  let answer () =
    lake_answer ~digest:(md5 (Lazy.force snap)) ~invariants ~rows ~records
  in
  let span_bytes = List.map (fun (sp : Trace.Segment.span) -> sp.sp_bytes) spans in
  let max_bytes = List.fold_left max 0 span_bytes in
  let mean_bytes =
    float_of_int (List.fold_left ( + ) 0 span_bytes)
    /. float_of_int (max 1 (List.length spans))
  in
  let build ~op_ns ~op_words ~majors =
    let fold = Tr.total "segment.fold_range" and obs = Tr.total "engine.observe" in
    let self_ns =
      self_ns ~op_ns
        [ "segment.plan"; "parallel.map"; "engine.merge"; "engine.extract" ]
    in
    [ ("segment.decode_ns_per_record", per (fold.ns - obs.ns) records);
      ("segment.bytes_per_record", per bytes records);
      ("segment.blocks", float_of_int blocks);
      ("segment.spans", float_of_int (List.length spans));
      ("segment.span_skew", if mean_bytes = 0. then 0. else float_of_int max_bytes /. mean_bytes);
      ("engine.encode_ms", ms (Tr.total "engine.encode").ns);
      ("engine.snapshot_bytes", float_of_int (String.length (Lazy.force snap)));
      ("parallel.jobs", float_of_int jobs);
      ("parallel.shard_skew", skew "segment.fold_range") ]
    @ engine_ledger acc ~invariants:(List.length invariants)
    @ common_ledger ~records ~op_ns ~op_words ~self_ns ~majors
  in
  (answer, build)

(* ---- serve-warm: closed-loop sessions against a warmed server ---- *)

let serve_flow_names size = List.concat (fst (corpus_names size))

let mine_request ~last name =
  Serve.Proto.Mine
    { source = Serve.Proto.Names [ name ]; label = Some name; row = true;
      digest = last }

let serve_row_string (r : Serve.Proto.row) =
  Printf.sprintf "%s:%d:%d:%d:%d" r.r_label r.r_unmodified r.r_fresh
    r.r_deleted r.r_total

(* The reference a served session must reproduce: a sequential jobs=1
   Pipeline.Session, one mine per program, a row after each. *)
let serve_reference size : answer =
  let s = P.Session.create () in
  let rows =
    List.concat_map
      (fun n -> (P.Session.mine s ~label:n [ resolve n ]).P.Session.o_rows)
      (serve_flow_names size)
  in
  [ ("engine", P.Session.engine_digest s); ("figure3", md5 (rows_string rows)) ]

(* Finished sessions are only reclaimed by the server's idle eviction,
   which measures from a session's last request: the timeout must stay
   well above the slowest request, or a session still in use is
   evicted between two of its requests. *)
let session_idle_s = 10.0

type server = {
  srv : Serve.Server.t;
  dom : unit Domain.t;
  sock : string;
  cache : string;
}

let stop_server s =
  Serve.Server.stop s.srv;
  Domain.join s.dom;
  rm_rf s.cache;
  (try Sys.remove s.sock with Sys_error _ -> ())

(* Warm a fresh shard cache with one cold parallel mine of the corpus
   (the per-program shards are all a session reads), then start a
   server on it. Socket paths are relative to keep under the sun_path
   limit wherever the checkout lives. *)
let start_server size ~work ~rep =
  let cache = Filename.concat work (Printf.sprintf "cache%d" rep) in
  rm_rf cache;
  ignore
    (P.mine_invariants ~jobs ~cache_dir:cache ~names:(serve_flow_names size) ());
  let sock = Filename.concat work (Printf.sprintf "s%d.sock" rep) in
  let cfg =
    { Serve.Server.listen = Serve.Server.Unix_sock sock; jobs;
      max_inflight = 4; idle_timeout = session_idle_s; cache_dir = Some cache;
      mine_jobs = 1 }
  in
  let srv = Serve.Server.create cfg in
  let dom = Domain.spawn (fun () -> Serve.Server.run srv) in
  { srv; dom; sock; cache }

(* Every flow gets a session name no earlier flow of the process used,
   so it starts from an empty engine. *)
let session_seq = ref 0

let fresh_session prefix =
  incr session_seq;
  Printf.sprintf "%s-%d" prefix !session_seq

(* Busy replies seen by any flow of the process. *)
let busy_replies = ref 0

(* One closed-loop connection: a fresh session per flow through every
   program of the corpus, one request in flight. *)
type conn = {
  fd : Unix.file_descr;
  dec : Serve.Frame.decoder;
  prefix : string;
  mutable flows : int;  (* flows started *)
  mutable session : string;
  mutable next : int;  (* index of the request in flight *)
  mutable rows : Serve.Proto.row list;
  mutable sent : float * (int * int) option;  (* a [mark] *)
  mutable samples : sample list;
  mutable live : bool;
}

(* The sample of one reply. A failed or busy reply fails its request; a
   Figure 3 series or final digest that differs from the reference
   fails the flow's last request. *)
let judge c ~last ~(reference : answer) ~lat = function
  | Serve.Proto.Mined { id; records; rows; digest; _ } when id = c.next + 1 ->
    c.rows <- rows @ c.rows;
    let ok =
      (not last)
      ||
      let got_rows = String.concat ";" (List.rev_map serve_row_string c.rows) in
      check ~what:"serve-warm" ~want:reference
        [ ("engine", Option.value digest ~default:"");
          ("figure3", md5 got_rows) ]
    in
    { lat; records; ok }
  | other ->
    (match other with Serve.Proto.Busy _ -> incr busy_replies | _ -> ());
    prerr_endline
      ("perfbench: serve-warm request failed: "
       ^ Serve.Proto.encode_response other);
    { lat; records = 0; ok = false }

(* A reply slower than this is taken for a stalled server. *)
let stall_s = 60.

(* [conns] connections, each a closed loop of fresh sessions until
   [deadline] (at least [min_flows] each), all driven from this domain
   with select; returns every request sample and the window's time,
   steal left out. Serve.Client is not used here: its read buffer is one per
   process, so clients on different domains overwrite each other's
   replies. *)
let serve_closed_loop size server ~reference ~conns ~deadline ~min_flows =
  let names = Array.of_list (serve_flow_names size) in
  let last_i = Array.length names - 1 in
  let send c =
    let req =
      Serve.Proto.encode_request
        { id = c.next + 1; session = Some c.session;
          request = mine_request ~last:(c.next = last_i) names.(c.next) }
    in
    c.sent <- mark ();
    let s = Serve.Frame.encode req in
    let rec go off =
      if off < String.length s then
        go (off + Unix.write_substring c.fd s off (String.length s - off))
    in
    go 0
  in
  let start_flow c =
    c.session <- fresh_session c.prefix;
    c.flows <- c.flows + 1;
    c.next <- 0;
    c.rows <- [];
    send c
  in
  let fail c why =
    prerr_endline ("perfbench: serve-warm connection failed: " ^ why);
    c.samples <- { lat = since c.sent; records = 0; ok = false } :: c.samples;
    c.live <- false
  in
  let reply c resp =
    let lat = since c.sent in
    let last = c.next = last_i in
    c.samples <- judge c ~last ~reference ~lat resp :: c.samples;
    if not last then begin
      c.next <- c.next + 1;
      send c
    end
    else if c.flows >= min_flows && now_s () >= deadline then c.live <- false
    else start_flow c
  in
  let rec drain c =
    match Serve.Frame.next c.dec with
    | `Await -> ()
    | `Error e -> fail c (Serve.Frame.error_message e)
    | `Frame p ->
      (match Serve.Proto.decode_response p with
       | Ok resp -> reply c resp
       | Error m -> fail c ("bad response: " ^ m));
      if c.live then drain c
  in
  let buf = Bytes.create 65536 in
  let readable c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> fail c "closed by the server"
    | n ->
      Serve.Frame.feed c.dec (Bytes.sub_string buf 0 n);
      drain c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let window = mark () in
  let cs = ref [] in
  let close_all () =
    List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !cs
  in
  Fun.protect ~finally:close_all (fun () ->
      for k = 0 to conns - 1 do
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let c =
          { fd; dec = Serve.Frame.decoder (); prefix = Printf.sprintf "c%d" k;
            flows = 0; session = ""; next = 0; rows = []; sent = window;
            samples = []; live = true }
        in
        cs := c :: !cs;
        Unix.connect fd (Unix.ADDR_UNIX server.sock);
        start_flow c
      done;
      let rec loop () =
        match List.filter (fun c -> c.live) !cs with
        | [] -> ()
        | live ->
          (match Unix.select (List.map (fun c -> c.fd) live) [] [] stall_s with
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
           | [], _, _ -> List.iter (fun c -> fail c "no reply") live
           | ready, _, _ ->
             List.iter (fun c -> if List.mem c.fd ready then readable c) live);
          loop ()
      in
      loop ());
  (List.concat_map (fun c -> List.rev c.samples) (List.rev !cs), since window)

(* The traced replica of one session flow, from public layer calls:
   request encode/frame/decode, a real Scheduler hop, snapshot decode
   of the warmed shard, merge into the session engine, extraction and
   the row diff, then the response back through the codec. *)
let traced_serve_flow size (snaps : (string * string) list) () =
  let sched_done = Mutex.create () and cond = Condition.create () in
  let results = Hashtbl.create 32 in
  let sched =
    Serve.Scheduler.create ~jobs:1 ~max_inflight:4
      ~on_complete:(fun ~tag:_ ~key r ->
          Mutex.protect sched_done (fun () ->
              Hashtbl.replace results key r;
              Condition.broadcast cond))
      ()
  in
  let session = E.create () in
  let previous = ref (Hashtbl.create 1) in
  let names = serve_flow_names size in
  let last_i = List.length names - 1 in
  let frame_dec = Tr.agg "frame.decode" and proto_dec = Tr.agg "proto.decode" in
  let proto_enc = Tr.agg "proto.encode" in
  let decode_frame bytes =
    Tr.timed frame_dec (fun () ->
        let d = Serve.Frame.decoder () in
        Serve.Frame.feed d bytes;
        match Serve.Frame.next d with `Frame p -> p | _ -> failwith "frame")
  in
  let parent = Tr.current () in
  let served_rows = ref [] and digest = ref "" in
  let records = ref 0 in
  List.iteri
    (fun i name ->
       let req =
         Tr.timed proto_enc (fun () ->
             Serve.Proto.encode_request
               { id = i + 1; session = Some "traced";
                 request = mine_request ~last:(i = last_i) name })
       in
       let wire = Serve.Frame.encode req in
       let env =
         match Tr.timed proto_dec (fun () -> Serve.Proto.decode_request (decode_frame wire)) with
         | Ok env -> env
         | Error e -> failwith e
       in
       let work () =
         Tr.on_worker parent (fun () ->
             Tr.with_ "serve.job" (fun () ->
                 let shard =
                   Tr.with_ "engine.decode" (fun () -> E.decode (List.assoc name snaps))
                 in
                 let before = E.record_count session in
                 Tr.with_ "engine.merge" (fun () -> E.merge_into session shard);
                 let row = snapshot_row session previous ~label:name in
                 let dig =
                   if i = last_i then
                     Some (md5 (Tr.with_ "engine.encode" (fun () -> E.encode session)))
                   else None
                 in
                 Serve.Proto.Mined
                   { id = env.Serve.Proto.id; records = E.record_count session - before;
                     total_records = E.record_count session;
                     rows =
                       [ { r_label = row.group_label; r_unmodified = row.unmodified;
                           r_fresh = row.fresh; r_deleted = row.deleted;
                           r_total = row.total } ];
                     invariants = row.total; digest = dig }))
       in
       (match Serve.Scheduler.submit sched ~session:"traced" ~tag:0 ~key:env.id ~work with
        | `Queued _ -> ()
        | _ -> failwith "scheduler refused the job");
       let resp =
         Tr.with_ "scheduler.wait" (fun () ->
             Mutex.protect sched_done (fun () ->
                 while not (Hashtbl.mem results env.id) do
                   Condition.wait cond sched_done
                 done;
                 Hashtbl.find results env.id))
       in
       let out = Tr.timed proto_enc (fun () -> Serve.Proto.encode_response resp) in
       match
         Tr.timed proto_dec (fun () ->
             Serve.Proto.decode_response (decode_frame (Serve.Frame.encode out)))
       with
       | Ok (Serve.Proto.Mined m) ->
         records := !records + m.records;
         served_rows := List.rev_append m.rows !served_rows;
         Option.iter (fun d -> digest := d) m.digest
       | _ -> failwith "undecodable response")
    names;
  Serve.Scheduler.drain sched;
  Tr.close_agg frame_dec;
  Tr.close_agg proto_dec;
  Tr.close_agg proto_enc;
  let answer () =
    [ ("engine", !digest);
      ("figure3",
       md5 (String.concat ";" (List.rev_map serve_row_string !served_rows))) ]
  in
  let requests = List.length names in
  let build ~op_ns ~op_words ~majors =
    let per_req x = x /. float_of_int requests in
    (* The job runs on the scheduler's worker while the main domain
       waits, so the wait is counted only where the job does not cover
       it, and the job's engine calls are layer spans of their own: the
       row diff and the response build stay pipeline self time. *)
    let self_ns =
      self_ns ~op_ns
        [ "frame.decode"; "proto.decode"; "proto.encode"; "scheduler.wait";
          "engine.decode"; "engine.merge"; "engine.extract"; "engine.encode" ]
      + (Tr.total "serve.job").ns
    in
    let common =
      common_ledger ~records:!records ~op_ns ~op_words ~self_ns ~majors
    in
    let fd = Tr.total "frame.decode" and pd = Tr.total "proto.decode" in
    let pe = Tr.total "proto.encode" in
    List.map
      (fun (k, v) ->
         match k with
         | "engine.merge_ms" | "engine.extract_ms" | "engine.decode_ms"
         | "pipeline.self_ms" -> (k, per_req v)
         | _ -> (k, v))
      common
    @ engine_ledger session ~invariants:(List.length (E.invariants session))
    @ [ ("frame.decode_ns", per fd.ns fd.tcalls);
        ("proto.decode_ns", per pd.ns pd.tcalls);
        ("proto.encode_ns", per pe.ns pe.tcalls) ]
  in
  (answer, build)

(* Shard snapshots for the traced replica, mined and encoded once. *)
let encode_shards size =
  let names = serve_flow_names size in
  let t = Tr.agg "engine.encode" in
  let snaps =
    List.map
      (fun n ->
         let w = resolve n in
         let e = E.create () in
         ignore
           (Trace.Runner.stream ~tick_period:w.tick_period ~entry:w.entry
              ~observer:(E.observe e) w.image);
         (n, Tr.timed t (fun () -> E.encode e)))
      names
  in
  (snaps, t.ans)

(* ---- campaign: Pipeline.campaign over the identified SCI battery ---- *)

let campaign_battery size =
  let names = List.concat (fst (corpus_names size)) in
  let invariants = P.mine_invariants ~jobs ~names () in
  let opt = P.optimize invariants in
  let ident =
    P.identify ~invariants:opt.result.Invopt.Pipeline.optimized Bugs.Table1.all
  in
  ident.summary.Sci.Identify.unique_sci

let campaign_answer ~fingerprint ~detected ~mutants : answer =
  [ ("fingerprint", fingerprint);
    ("detected", Printf.sprintf "%d/%d" detected mutants) ]

(* Pipeline.campaign rebuilt from Compile, Gen, Runner, Mutant and
   Compile.first_firing calls, with the same trigger rotation and
   fingerprint. *)
let traced_campaign size sci () =
  let mutants, triggers = campaign_shape size in
  let seed = campaign_seed and tries = 3 in
  let compiled =
    Tr.with_ "compile" (fun () ->
        Assertions.Compile.compile (Assertions.Ovl.of_invariants sci))
  in
  let runner = Tr.agg "runner" and monitor = Tr.agg "monitor" in
  let gen = Tr.agg "fuzz.gen" in
  let records = ref 0 and hits = ref 0 and misses = ref 0 in
  (* records the monitor evaluated: whole clean traces for the pool, up
     to the first firing for each mutant attempt *)
  let pool_monitored = ref 0 and monitored = ref 0 in
  let capture ?(fault = Cpu.Fault.none) (w : Workloads.Rt.t) =
    Tr.timed runner (fun () ->
        let machine = Cpu.Machine.create ~fault ~tick_period:w.tick_period () in
        Cpu.Machine.load_image machine w.image;
        Cpu.Machine.set_pc machine w.entry;
        let config =
          { Trace.Runner.default_config with
            max_steps = Sci.Identify.trigger_max_steps }
        in
        let rs, _ =
          Trace.Runner.run_fold ~config ~init:[] ~f:(fun acc r -> r :: acc) machine
        in
        let h, m, _ = Cpu.Machine.decode_cache_stats machine in
        hits := !hits + h;
        misses := !misses + m;
        let rs = List.rev rs in
        records := !records + List.length rs;
        rs)
  in
  let pool =
    Tr.with_ "triggers" (fun () ->
        let pool =
          Array.init triggers (fun index ->
              let w = Tr.timed gen (fun () -> Fuzz.Gen.candidate ~seed ~index) in
              let clean = capture w in
              pool_monitored := !pool_monitored + List.length clean;
              let fired =
                Tr.timed monitor (fun () -> Assertions.Compile.fired_set compiled clean)
              in
              (w, fired))
        in
        Tr.close_agg gen;
        Tr.close_agg runner;
        Tr.close_agg monitor;
        pool)
  in
  let runner = Tr.agg "runner" and monitor = Tr.agg "monitor" in
  let ms_list =
    Tr.with_ "mutant.generate" (fun () -> Bugs.Mutant.generate ~seed ~count:mutants)
  in
  let outcomes =
    Tr.with_ "mutants" (fun () ->
        let o =
          List.mapi
            (fun i (m : Bugs.Mutant.t) ->
               let rec attempt j =
                 let (w : Workloads.Rt.t), clean_fired = pool.((i + (j * 17)) mod triggers) in
                 if j >= tries then (m, w.name, false, -1)
                 else begin
                   let buggy = capture ~fault:m.fault w in
                   let first =
                     Tr.timed monitor (fun () ->
                         Assertions.Compile.first_firing ~ignore:clean_fired compiled buggy)
                   in
                   match first with
                   | Some f ->
                     monitored := !monitored + f.step + 1;
                     (m, w.name, true, f.step)
                   | None ->
                     monitored := !monitored + List.length buggy;
                     attempt (j + 1)
                 end
               in
               attempt 0)
            ms_list
        in
        Tr.close_agg runner;
        Tr.close_agg monitor;
        o)
  in
  let fingerprint =
    outcomes
    |> List.map (fun ((m : Bugs.Mutant.t), trigger, detected, latency) ->
        Printf.sprintf "%s:%s:%s:%b:%d" m.id
          (Bugs.Registry.category_name m.category) trigger detected latency)
    |> String.concat "\n" |> md5
  in
  let detected = List.length (List.filter (fun (_, _, d, _) -> d) outcomes) in
  let answer () =
    campaign_answer ~fingerprint ~detected ~mutants
    @ [ ("records", string_of_int !records) ]
  in
  let build ~op_ns ~op_words ~majors =
    let run = Tr.total "runner" and mon = Tr.total "monitor" in
    let self_ns =
      self_ns ~op_ns [ "compile"; "triggers"; "mutant.generate"; "mutants" ]
    in
    [ ("runner.ns_per_record", per run.ns !records);
      ("runner.records", float_of_int !records);
      ("runner.minor_words_per_record", per run.twords !records);
      ("runner.decode_cache_hit_ratio", per !hits (!hits + !misses));
      ("compile.ms", ms (Tr.total "compile").ns);
      ("monitor.ns_per_record", per mon.ns (!pool_monitored + !monitored));
      ("monitor.records_per_mutant", per !monitored mutants);
      ("mutant.generate_us",
       float_of_int (Tr.total "mutant.generate").ns /. 1e3 /. float_of_int mutants);
      ("parallel.jobs", 1.) ]
    @ common_ledger ~records:!records ~op_ns ~op_words ~self_ns ~majors
  in
  (answer, build)

(* ---- The harness ---- *)

type instance = {
  setup_s : float list;  (* one per set-up repetition *)
  reference : answer;
  pinned : bool;
  setup_ok : bool;  (* the set-up reference agreed with its pin *)
  (* untraced measurement until the deadline *)
  measure : deadline:float -> min_ops:int -> sample list * float;
  (* one untraced operation at [jobs], and at jobs=1 where the
     workload has a jobs setting *)
  untraced_once : unit -> sample;
  jobs1_once : unit -> sample option;
  traced : unit -> answer * float * ledger;
  (* traced run only: work before the alternating operations, its
     samples and the per-run layer values it yields *)
  prelude : deadline:float -> sample list * ledger;
  op_records : unit -> int;       (* records per user operation *)
  rss_note : unit -> string;      (* printed beside peak_rss_mb *)
  close : unit -> unit;
}

(* Sequential operations until the deadline (at least [min_ops]). A
   full major collection before each one, off the clock, keeps one
   operation's garbage from being collected on the next one's time. *)
let sequential ~deadline ~min_ops op =
  let t0 = now_s () in
  let rec go k acc =
    if k >= min_ops && now_s () >= deadline then List.rev acc
    else begin
      Gc.full_major ();
      go (k + 1) (op () :: acc)
    end
  in
  let samples = go 0 [] in
  (samples, now_s () -. t0)

let pin_or ~name ~seed ~size compute =
  match (size, Pins.find ~workload:name ~seed) with
  | Full, Some p -> (p, true)
  | _ -> (compute (), false)

let reps ?(extra = 0) size f =
  List.init (setup_reps size + extra) (fun rep -> snd (timed (fun () -> f rep)))

let corpus_instance a =
  let size = a.size in
  (* Set-up: the process's first cold mines, which pay for heap growth
     and lazy initialisation before anything is timed. *)
  let setup_s = reps size (fun _ -> ignore (mine_corpus size ~jobs)) in
  (* The Figure 3 reference, off the set-up clock: one jobs=1
     Pipeline.mine with its rows, checked against the pin. *)
  let full, records = mine_corpus_rows size ~jobs:1 in
  let reference, pinned = pin_or ~name:a.workload ~seed:a.seed ~size (fun () -> full) in
  let setup_ok = check ~what:"corpus-cold Figure 3 mine" ~want:reference full in
  let want = List.filter (fun (k, _) -> List.mem_assoc k (corpus_answer [])) reference in
  let sample ~jobs =
    let ans, lat = timed (fun () -> mine_corpus size ~jobs) in
    { lat; records; ok = check ~what:(Printf.sprintf "corpus-cold jobs=%d" jobs) ~want ans }
  in
  { setup_s; reference; pinned; setup_ok;
    measure = (fun ~deadline ~min_ops -> sequential ~deadline ~min_ops (fun () -> sample ~jobs));
    untraced_once = (fun () -> sample ~jobs);
    jobs1_once = (fun () -> Some (sample ~jobs:1));
    traced = (fun () -> traced_op a.workload (traced_corpus size));
    prelude = (fun ~deadline:_ -> ([], []));
    op_records = (fun () -> records);
    rss_note = (fun () -> "");
    close = (fun () -> ()) }

let lake_instance a =
  let size = a.size in
  let dir = Filename.concat a.work "lake" in
  let records = ref 0 in
  let setup_s =
    (* Choosing the programs and recording them is short and
       fsync-bound: more repetitions steady its median. *)
    reps ~extra:2 size (fun _ ->
        records := record_fuzz_lake (lake_programs size) ~dir)
  in
  let reference, pinned =
    pin_or ~name:a.workload ~seed:a.seed ~size (fun () ->
        let ans, _, _ = mine_lake ~jobs:1 dir in
        ans)
  in
  let op () =
    let ans, n, lat = mine_lake ~jobs dir in
    { lat; records = n; ok = check ~what:"lake-sharded" ~want:reference ans }
  in
  { setup_s; reference; pinned; setup_ok = true;
    measure = (fun ~deadline ~min_ops -> sequential ~deadline ~min_ops op);
    untraced_once = op;
    jobs1_once = (fun () ->
        let ans, n, lat = mine_lake ~jobs:1 dir in
        Some { lat; records = n;
               ok = check ~what:"lake-sharded jobs=1" ~want:reference ans });
    traced = (fun () -> traced_op a.workload (traced_lake dir));
    prelude = (fun ~deadline:_ -> ([], []));
    op_records = (fun () -> !records);
    rss_note = (fun () -> "");
    close = (fun () -> rm_rf dir) }

let serve_instance a =
  let size = a.size in
  let server = ref None in
  let setup_s =
    reps size (fun rep ->
        Option.iter stop_server !server;
        server := Some (start_server size ~work:a.work ~rep))
  in
  let server = Option.get !server in
  let reference, pinned =
    pin_or ~name:a.workload ~seed:a.seed ~size (fun () -> serve_reference size)
  in
  let snaps = lazy (encode_shards size) in
  let requests = List.length (serve_flow_names size) in
  let untraced_flow () =
    fst
      (serve_closed_loop size server ~reference ~conns:1 ~deadline:0.
         ~min_flows:1)
  in
  let closed_loop ~deadline ~min_ops =
    serve_closed_loop size server ~reference ~conns:jobs ~deadline
      ~min_flows:(max 1 (min_ops / jobs))
  in
  (* A finished flow's session stays in the server until it has been
     idle for [session_idle_s] (the protocol cannot end a session), so
     the sessions held at once, and the memory they pin, grow with the
     flow rate. The count is printed beside peak_rss_mb. *)
  let rss_note = ref "" in
  let measure ~deadline ~min_ops =
    let r = closed_loop ~deadline ~min_ops in
    let c = Serve.Client.connect_unix server.sock in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
        match Serve.Client.call c Serve.Proto.Status with
        | Serve.Proto.Stats { sessions; evicted; _ } ->
          rss_note :=
            Printf.sprintf
              "(server held %d sessions at window end, %d evicted; \
               idle timeout %g s)"
              (List.length sessions) evicted session_idle_s
        | _ -> ());
    r
  in
  (* The traced run's server phase: the same closed loop, read for the
     server-side layer figures (scheduler queueing and run time, busy
     replies, the client-observed latency beyond the job's own total,
     shard-cache hits) and the set-up snapshot encode. *)
  let prelude ~deadline =
    let cache_counts () =
      List.map
        (fun n -> Obs.Metrics.counter_value (Obs.Metrics.counter n))
        [ "mine.cache.hit"; "mine.cache.miss"; "mine.cache.stale" ]
    in
    let before = cache_counts () in
    let busy0 = !busy_replies in
    let samples, _ = closed_loop ~deadline ~min_ops:jobs in
    let hit, lookups =
      match List.map2 ( - ) (cache_counts ()) before with
      | [ hit; miss; stale ] -> (hit, hit + miss + stale)
      | _ -> (0, 0)
    in
    let h name = Obs.Metrics.histogram ~unit:"ns" name in
    let p50_ms name =
      float_of_int (Obs.Metrics.histogram_percentile (h name) 0.5) /. 1e6
    in
    let job_mean_ms =
      List.find_map
        (fun (s : Obs.Metrics.snapshot) ->
           if s.metric <> "serve.job.total_ns" then None
           else
             match List.assoc_opt "mean" s.attrs with
             | Some (Obs.Sink.F f) -> Some (f /. 1e6)
             | Some (Obs.Sink.I i) -> Some (float_of_int i /. 1e6)
             | _ -> None)
        (Obs.Metrics.snapshot ())
      |> Option.value ~default:0.
    in
    let client_mean_ms =
      1e3 *. List.fold_left (fun t s -> t +. s.lat) 0. samples
      /. float_of_int (max 1 (List.length samples))
    in
    let snaps, encode_ns = Lazy.force snaps in
    ( samples,
      [ ("scheduler.wait_ms_p50", p50_ms "serve.job.wait_ns");
        ("scheduler.run_ms_p50", p50_ms "serve.job.run_ns");
        ("scheduler.busy", float_of_int (!busy_replies - busy0));
        ("server.overhead_ms", client_mean_ms -. job_mean_ms);
        ("pipeline.shard_hit_ratio", per hit lookups);
        ("parallel.jobs", float_of_int jobs);
        ("engine.encode_ms", ms encode_ns);
        ("engine.snapshot_bytes",
         float_of_int
           (List.fold_left (fun n (_, b) -> n + String.length b) 0 snaps)) ] )
  in
  { setup_s; reference; pinned; setup_ok = true;
    measure;
    untraced_once = (fun () ->
        let s = untraced_flow () in
        { lat = List.fold_left (fun t s -> t +. s.lat) 0. s /. float_of_int requests;
          records = List.fold_left (fun t s -> t + s.records) 0 s;
          ok = List.for_all (fun s -> s.ok) s });
    jobs1_once = (fun () -> None);
    traced = (fun () ->
        let snaps, _ = Lazy.force snaps in
        let ans, secs, ledger = traced_op a.workload (traced_serve_flow size snaps) in
        (ans, secs /. float_of_int requests, ledger));
    prelude;
    op_records = (fun () -> 0);
    rss_note = (fun () -> !rss_note);
    close = (fun () -> stop_server server) }

let campaign_instance a =
  let size = a.size in
  let mutants, triggers = campaign_shape size in
  let sci = ref [] in
  let setup_s = reps size (fun _ -> sci := campaign_battery size) in
  let sci = !sci in
  let op_answer () =
    let c = P.campaign ~seed:campaign_seed ~mutants ~triggers ~sci () in
    campaign_answer ~fingerprint:c.fingerprint ~detected:c.detected_total ~mutants
  in
  let reference, pinned =
    pin_or ~name:a.workload ~seed:a.seed ~size (fun () ->
        (* Unpinned: the public campaign is the reference; the record
           count comes from one composed run. *)
        let ans, _, _ = traced_op a.workload (traced_campaign size sci) in
        op_answer () @ [ ("records", List.assoc "records" ans) ])
  in
  let records = int_of_string (List.assoc "records" reference) in
  let want = List.filter (fun (k, _) -> k <> "records") reference in
  let op () =
    let ans, lat = timed op_answer in
    { lat; records; ok = check ~what:"campaign" ~want ans }
  in
  { setup_s; reference; pinned; setup_ok = true;
    measure = (fun ~deadline ~min_ops -> sequential ~deadline ~min_ops op);
    untraced_once = op;
    jobs1_once = (fun () -> None);
    traced = (fun () -> traced_op a.workload (traced_campaign size sci));
    prelude = (fun ~deadline:_ -> ([], []));
    op_records = (fun () -> records);
    rss_note = (fun () -> "");
    close = (fun () -> ()) }

(* ---- Output ---- *)

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let print_result ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
       correct attempted failed);
  List.iteri
    (fun i (name, unit, v) ->
       if i > 0 then Buffer.add_string b ", ";
       Buffer.add_string b
         (Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
            (json_float v) unit))
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

let min_ops = function Full -> 3 | Tiny -> 1

(* Untraced: the end-to-end metrics. *)
let run_untraced a inst =
  let deadline = now_s () +. a.seconds in
  let ticks = cpu_ticks () in
  let samples, wall = inst.measure ~deadline ~min_ops:(min_ops a.size) in
  let steal = steal_share ticks (cpu_ticks ()) in
  let lats = List.map (fun s -> s.lat) samples in
  let n = List.length samples in
  let failed = List.length (List.filter (fun s -> not s.ok) samples) in
  let records = List.fold_left (fun acc s -> acc + s.records) 0 samples in
  let p50 = median lats in
  let q, tl = tail lats in
  (* Batch workloads run one operation at a time, so rates come from
     the median operation; serve-warm's connections overlap, so its
     rates are counts over the measured window. *)
  let records_per_s, requests_per_s =
    if a.workload = "serve-warm" then
      (float_of_int records /. wall, float_of_int n /. wall)
    else (float_of_int (inst.op_records ()) /. p50, 1. /. p50)
  in
  let setup = median inst.setup_s in
  let rss = peak_rss_mb () in
  if a.workload <> "serve-warm" then
    pf "operation latencies (s): %s\n"
      (String.concat " " (List.map (Printf.sprintf "%.3f") lats));
  pf "%-16s %12s %s\n" "metric" "value" "unit";
  let row name v unit = pf "%-16s %12.4f %s\n" name v unit in
  row "setup_s" setup "s";
  row "records_per_s" records_per_s "records/s";
  row "latency_p50_ms" (p50 *. 1e3) "ms";
  pf "%-16s %12.4f ms (p%g of %d samples)\n" "latency_tail_ms" (tl *. 1e3)
    (q *. 100.) n;
  row "requests_per_s" requests_per_s "req/s";
  if a.workload = "campaign" then
    row "mutants_per_s"
      (requests_per_s *. float_of_int (fst (campaign_shape a.size)))
      "mutants/s";
  pf "%-16s %12.4f MB %s\n" "peak_rss_mb" rss (inst.rss_note ());
  row "failed_frac" (per failed n) "failed/attempted";
  pf "host steal while measuring: %.1f%% of the CPU time this machine \
      wanted; the times above leave it out\n" (100. *. steal);
  let correct = inst.setup_ok && failed = 0 in
  ( correct, n, failed,
    [ ("setup_s", "s", setup);
      ("latency_p50_ms", "ms", p50 *. 1e3);
      ("latency_tail_ms", "ms", tl *. 1e3);
      ("records_per_s", "records/s", records_per_s);
      ("requests_per_s", "req/s", requests_per_s);
      ("peak_rss_mb", "MB", rss) ] )

(* Traced: untraced and traced operations alternate until the deadline;
   then one jobs=1 operation for the parallel speed-up. *)
let run_traced a inst =
  let deadline = now_s () +. a.seconds in
  let server_samples, extra = inst.prelude ~deadline:(now_s () +. (a.seconds /. 2.)) in
  let rec go k untraced traced =
    if k >= min_ops a.size && now_s () >= deadline then (untraced, traced)
    else
      let u = inst.untraced_once () in
      let t = inst.traced () in
      go (k + 1) (u :: untraced) (t :: traced)
  in
  let untraced, traced = go 0 [] [] in
  let jobs1 = inst.jobs1_once () in
  let traced_failed =
    List.length
      (List.filter
         (fun (ans, _, _) ->
            not
              (check ~what:(a.workload ^ " traced")
                 ~want:(List.filter (fun (k, _) -> List.mem_assoc k ans) inst.reference)
                 ans))
         traced)
  in
  let answers_equal = traced_failed = 0 in
  let ledgers = List.map (fun (_, _, l) -> l) traced in
  let value name =
    median (List.filter_map (fun l -> List.assoc_opt name l) ledgers)
  in
  let counts_repeat =
    List.for_all
      (fun name ->
         match List.filter_map (fun l -> List.assoc_opt name l) ledgers with
         | [] -> true
         | v :: rest -> List.for_all (Float.equal v) rest)
      exact_counts
  in
  if not counts_repeat then prerr_endline "perfbench: a layer count changed between traced operations";
  let u50 = median (List.map (fun s -> s.lat) untraced) in
  let t50 = median (List.map (fun (_, s, _) -> s) traced) in
  let run_level =
    [ ("parallel.recommended", float_of_int recommended);
      ("parallel.speedup",
       match jobs1 with Some s -> s.lat /. u50 | None -> 0.);
      ("trace.overhead_frac", (t50 -. u50) /. u50) ]
  in
  let metrics =
    List.map
      (fun (name, unit) ->
         let v =
           match List.assoc_opt name run_level with
           | Some v -> v
           | None ->
             (match List.assoc_opt name extra with
              | Some v -> v
              | None ->
                let v = value name in
                if Float.is_nan v then 0. else v)
         in
         (name, unit, v))
      layer_metrics
  in
  pf "traced operations: %d; untraced median %.4f s, traced median %.4f s; \
      tracing overhead %+.1f%%; answers equal untraced: %b\n"
    (List.length traced) u50 t50
    (100. *. (t50 -. u50) /. u50)
    answers_equal;
  List.iter (fun (n, u, v) -> pf "%-40s %16.4f %s\n" n v u) metrics;
  (* Every operation the run made counts: the server phase's requests,
     the untraced and jobs=1 operations, and each traced operation,
     failed when its answer differs from the untraced reference. *)
  let checked = server_samples @ untraced @ Option.to_list jobs1 in
  let failed =
    List.length (List.filter (fun s -> not s.ok) checked) + traced_failed
  in
  let correct = inst.setup_ok && counts_repeat && failed = 0 in
  let path = Filename.concat a.work (Printf.sprintf "trace-%s.jsonl" a.workload) in
  Tr.write_jsonl path ~metrics;
  pf "spans written to %s (render with: scifinder report %s)\n" path path;
  (correct, List.length checked + List.length traced, failed, metrics)

let run a =
  mkdir_p a.work;
  pf "perfbench %s seed=%d seconds=%g trace=%b size=%s\n" a.workload a.seed
    a.seconds a.trace
    (match a.size with Full -> "full" | Tiny -> "tiny");
  pf "jobs=%d recommended_domain_count=%d\n%!" jobs recommended;
  let inst =
    match a.workload with
    | "corpus-cold" -> corpus_instance a
    | "lake-sharded" -> lake_instance a
    | "serve-warm" -> serve_instance a
    | "campaign" -> campaign_instance a
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  Fun.protect ~finally:inst.close (fun () ->
      pf "set-up: %s s (median of %d); reference: %s\n%!"
        (String.concat ", " (List.map (Printf.sprintf "%.3f") inst.setup_s))
        (List.length inst.setup_s)
        (if inst.pinned then "pinned" else "jobs=1 run at set-up");
      List.iter (fun (k, v) -> pf "  answer %s = %s\n" k v) inst.reference;
      if a.trace then run_traced a inst
      else run_untraced a inst)

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--size full|tiny] [--work DIR]\n       bench.exe --smoke";
  exit 2

let parse argv =
  let a =
    ref { workload = ""; seed = 1; seconds = 10.; trace = false; size = Full;
          work = ".perfbench_work" }
  in
  let smoke = ref false in
  let rec go = function
    | [] -> ()
    | "--smoke" :: rest -> smoke := true; go rest
    | "--workload" :: v :: rest -> a := { !a with workload = v }; go rest
    | "--seed" :: v :: rest -> a := { !a with seed = int_of_string v }; go rest
    | "--seconds" :: v :: rest -> a := { !a with seconds = float_of_string v }; go rest
    | "--trace" :: v :: rest -> a := { !a with trace = v = "1" }; go rest
    | "--size" :: "tiny" :: rest -> a := { !a with size = Tiny }; go rest
    | "--size" :: "full" :: rest -> a := { !a with size = Full }; go rest
    | "--work" :: v :: rest -> a := { !a with work = v }; go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list argv)) with Failure _ -> usage ());
  (!a, !smoke)

let () =
  let a, smoke = parse Sys.argv in
  if smoke then begin
    (* Every workload, tiny, one untraced and one traced operation. *)
    let ok =
      List.for_all
        (fun workload ->
           List.for_all
             (fun trace ->
                let correct, attempted, failed, metrics =
                  run { a with workload; seconds = 0.; trace; size = Tiny;
                             work = Filename.concat a.work workload }
                in
                correct && attempted >= 1 && failed = 0 && metrics <> [])
             [ false; true ])
        workload_names
    in
    rm_rf a.work;
    if not ok then (prerr_endline "perfbench smoke: FAILED"; exit 1);
    print_endline "perfbench smoke: ok"
  end
  else begin
    if not (List.mem a.workload workload_names) then usage ();
    let correct, attempted, failed, metrics = run a in
    print_result ~correct ~attempted ~failed metrics
  end
