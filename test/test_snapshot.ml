(* Engine snapshot persistence: save -> load must give an observationally
   identical engine (same invariants, stats, and behaviour under further
   observation or merging), damaged files must be rejected as corrupt,
   and mismatched key/config/version as stale. On top of that sits the
   pipeline's shard cache: warm mining over a cache directory must be
   bit-identical to cold mining. *)

module Engine = Daikon.Engine
module Expr = Invariant.Expr
module Pipeline = Scifinder_core.Pipeline

let trace_into engine name =
  let w = Option.get (Workloads.Suite.by_name name) in
  ignore
    (Trace.Runner.stream ~tick_period:w.Workloads.Rt.tick_period
       ~entry:w.Workloads.Rt.entry
       ~observer:(Engine.observe engine) w.Workloads.Rt.image)

let mined name =
  let engine = Engine.create () in
  trace_into engine name;
  engine

let strings engine = List.map Expr.to_string (Engine.invariants engine)

let check_observationally_equal msg a b =
  Alcotest.(check (list string)) (msg ^ ": invariants") (strings a) (strings b);
  Alcotest.(check int) (msg ^ ": record count")
    (Engine.record_count a) (Engine.record_count b);
  Alcotest.(check (list string)) (msg ^ ": points")
    (Engine.points a) (Engine.points b);
  Alcotest.(check bool) (msg ^ ": candidate stats") true
    (Engine.candidate_stats a = Engine.candidate_stats b)

(* ---- encode/decode ---- *)

let test_roundtrip () =
  let e = mined "pi" in
  let back = Engine.decode (Engine.encode e) in
  check_observationally_equal "decode (encode e)" e back

let test_roundtrip_is_canonical () =
  (* Identical state must encode to identical bytes — the property that
     makes snapshot files diffable and digests meaningful. *)
  let a = Engine.encode (mined "pi") and b = Engine.encode (mined "pi") in
  Alcotest.(check bool) "same bytes" true (String.equal a b)

let test_continued_observation () =
  let live = mined "pi" in
  let restored = Engine.decode (Engine.encode live) in
  trace_into live "helloworld";
  trace_into restored "helloworld";
  check_observationally_equal "observe after load" live restored

let test_merge_after_load () =
  let sequential = Engine.create () in
  trace_into sequential "pi";
  trace_into sequential "helloworld";
  let dst = mined "pi" in
  let src = Engine.decode (Engine.encode (mined "helloworld")) in
  Engine.merge_into dst src;
  Alcotest.(check (list string)) "merge of a loaded shard"
    (strings sequential) (strings dst)

let test_save_load_file () =
  let path = Filename.temp_file "scifinder_snap" ".snap" in
  Fun.protect ~finally:(fun () -> Sys.remove path)
    (fun () ->
       let e = mined "helloworld" in
       Engine.save ~key:"k1" e path;
       check_observationally_equal "load (save e)" e
         (Engine.load ~key:"k1" path))

(* ---- rejection ---- *)

let expect_corrupt msg data =
  match Engine.decode data with
  | _ -> Alcotest.fail ("expected Corrupt_snapshot: " ^ msg)
  | exception Engine.Corrupt_snapshot _ -> ()

let expect_stale msg f =
  match f () with
  | _ -> Alcotest.fail ("expected Stale_snapshot: " ^ msg)
  | exception Engine.Stale_snapshot _ -> ()

let test_corrupt () =
  let data = Engine.encode (mined "pi") in
  expect_corrupt "empty" "";
  expect_corrupt "bad magic" ("XXXXXXXX" ^ String.sub data 8 64);
  expect_corrupt "truncated half"
    (String.sub data 0 (String.length data / 2));
  expect_corrupt "truncated by one byte"
    (String.sub data 0 (String.length data - 1));
  (* Flip one payload byte: the digest check must catch it. *)
  let flipped = Bytes.of_string data in
  let last = Bytes.length flipped - 1 in
  Bytes.set flipped last (Char.chr (Char.code (Bytes.get flipped last) lxor 1));
  expect_corrupt "bit flip" (Bytes.to_string flipped)

let test_stale () =
  let e = mined "pi" in
  let data = Engine.encode ~key:"the-key" e in
  expect_stale "wrong key" (fun () -> Engine.decode ~key:"other-key" data);
  expect_stale "missing key" (fun () -> Engine.decode data);
  expect_stale "wrong config" (fun () ->
      Engine.decode ~key:"the-key"
        ~config:{ Daikon.Config.default with min_samples = 7 } data);
  (* Bump the codec version byte (it sits right after the 8-byte magic
     as a one-byte varint while codec_version < 0x80). *)
  let bumped = Bytes.of_string data in
  Bytes.set bumped 8 (Char.chr (Engine.codec_version + 1));
  expect_stale "future codec version" (fun () ->
      Engine.decode ~key:"the-key" (Bytes.to_string bumped))

(* ---- hostile pair state ---- *)

(* [data] with the first pair of its first point rewritten by [edit] and
   the payload digest recomputed, so only the decoder's range checks
   stand between the edited fields and the engine. [edit] receives and
   returns (rel, scale_ij, scale_ji, scale_nonzero). The walk re-encodes
   every field it reads, so the writer's length is the reader's offset
   (the codec is canonical). *)
let with_first_pair edit data =
  let module B = Util.Binio in
  let magic = String.sub data 0 8 in
  let r = B.reader (String.sub data 8 (String.length data - 8)) in
  let version = B.read_uint r in
  let key = B.read_string r in
  let _digest = B.read_string r in
  let payload = B.read_string_exact r (B.read_uint r) in
  let p = B.reader payload and w = B.writer () in
  let uint () = let v = B.read_uint p in B.write_uint w v; v in
  let int () = let v = B.read_int p in B.write_int w v; v in
  for _ = 1 to 8 do ignore (uint ()) done;          (* config *)
  ignore (uint ());                                 (* records *)
  if uint () = 0 then Alcotest.fail "no points";
  B.write_string w (B.read_string p);               (* point name *)
  for _ = 1 to uint () do                           (* variables *)
    ignore (uint ());
    ignore (int ());
    ignore (int ());
    let nd = int () in
    for _ = 1 to nd do ignore (int ()) done;
    ignore (int ());
    ignore (int ())
  done;
  if uint () = 0 then Alcotest.fail "first point has no pairs";
  ignore (uint ());                                 (* pi *)
  ignore (uint ());                                 (* pj *)
  let rel = B.read_uint p in
  let diff = B.read_int p in
  let diff_live = B.read_bool p in
  let ij = B.read_uint p in
  let ji = B.read_uint p in
  let nz = B.read_uint p in
  let rel', ij', ji', nz' = edit (rel, ij, ji, nz) in
  let tail = B.writer () in
  B.write_uint tail rel;
  B.write_int tail diff;
  B.write_bool tail diff_live;
  B.write_uint tail ij;
  B.write_uint tail ji;
  B.write_uint tail nz;
  let consumed = String.length (B.contents w) + String.length (B.contents tail) in
  B.write_uint w rel';
  B.write_int w diff;
  B.write_bool w diff_live;
  B.write_uint w ij';
  B.write_uint w ji';
  B.write_uint w nz';
  let payload =
    B.contents w
    ^ String.sub payload consumed (String.length payload - consumed)
  in
  let h = B.writer () in
  B.write_raw h magic;
  B.write_uint h version;
  B.write_string h key;
  B.write_string h (Digest.string payload);
  B.write_uint h (String.length payload);
  B.contents h ^ payload

let test_pair_out_of_range () =
  let data = Engine.encode (mined "helloworld") in
  Alcotest.(check bool) "an unchanged rewrite round-trips" true
    (String.equal data
       (Engine.encode (Engine.decode (with_first_pair Fun.id data))));
  let hostile msg edit = expect_corrupt msg (with_first_pair edit data) in
  (* rel 8 and 24 would set the hot path's f_diff / f_scale flag bits;
     256 used to escape as Invalid_argument "Char.chr". *)
  List.iter
    (fun rel ->
       hostile (Printf.sprintf "rel %d" rel)
         (fun (_, ij, ji, nz) -> (rel, ij, ji, nz)))
    [ 8; 24; 256 ];
  (* A mask above 0x3F would spill into the neighbouring packed field. *)
  hostile "scale_ij 0x40" (fun (rel, _, ji, nz) -> (rel, 0x40, ji, nz));
  hostile "scale_ji 0x40" (fun (rel, ij, _, nz) -> (rel, ij, 0x40, nz));
  hostile "support count off the packed word" (fun (rel, _, ji, _) ->
      (rel, 1, ji, max_int));
  hostile "support count with both masks dead" (fun (rel, _, _, _) ->
      (rel, 0, 0, 5))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc data)

let stale_count () =
  Obs.Metrics.counter_value (Obs.Metrics.counter "mine.cache.stale")

(* ---- the pipeline shard cache ---- *)

let with_cache_dir f =
  let dir = Filename.temp_file "scifinder_cache" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
        Array.iter
          (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let names = [ "pi"; "helloworld" ]

let test_cache_warm_equals_cold () =
  with_cache_dir (fun dir ->
      let uncached = Pipeline.mine_invariants ~jobs:1 ~names () in
      let cold = Pipeline.mine_invariants ~jobs:1 ~cache_dir:dir ~names () in
      let warm = Pipeline.mine_invariants ~jobs:1 ~cache_dir:dir ~names () in
      let s = List.map Expr.to_string in
      Alcotest.(check (list string)) "cold equals uncached" (s uncached) (s cold);
      Alcotest.(check (list string)) "warm equals cold" (s cold) (s warm);
      Alcotest.(check bool) "shards on disk" true
        (Sys.file_exists (Filename.concat dir "pi.snap")))

let test_cache_full_mine () =
  with_cache_dir (fun dir ->
      let groups = [ [ "pi" ]; [ "helloworld" ] ] in
      let labels = [ "pi"; "helloworld" ] in
      let cold = Pipeline.mine ~jobs:1 ~groups ~labels ~cache_dir:dir () in
      let warm = Pipeline.mine ~jobs:1 ~groups ~labels ~cache_dir:dir () in
      Alcotest.(check (list string)) "invariants"
        (List.map Expr.to_string cold.Pipeline.invariants)
        (List.map Expr.to_string warm.Pipeline.invariants);
      Alcotest.(check bool) "figure3 rows" true
        (cold.Pipeline.figure3 = warm.Pipeline.figure3);
      Alcotest.(check int) "records"
        cold.Pipeline.record_count warm.Pipeline.record_count)

let test_cache_rejects_damage () =
  with_cache_dir (fun dir ->
      let cold = Pipeline.mine_invariants ~jobs:1 ~cache_dir:dir ~names () in
      (* Truncate one shard: the next run must silently re-mine it. *)
      let victim = Filename.concat dir "pi.snap" in
      let len = (Unix.stat victim).Unix.st_size in
      let fd = Unix.openfile victim [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (len / 2);
      Unix.close fd;
      let again = Pipeline.mine_invariants ~jobs:1 ~cache_dir:dir ~names () in
      let s = List.map Expr.to_string in
      Alcotest.(check (list string)) "re-mined after truncation"
        (s cold) (s again))

let test_cache_hostile_pair_is_stale () =
  with_cache_dir (fun dir ->
      let cold = Pipeline.mine_invariants ~jobs:1 ~cache_dir:dir ~names () in
      (* A shard entry with a valid digest and key but a pair relation no
         encoder writes: a damaged entry, so a stale miss and a re-mine,
         never an exception out of the run. *)
      let victim = Filename.concat dir "pi.snap" in
      write_file victim
        (with_first_pair (fun (_, ij, ji, nz) -> (256, ij, ji, nz))
           (Util.Binio.read_file victim));
      let before = stale_count () in
      let again = Pipeline.mine_invariants ~jobs:1 ~cache_dir:dir ~names () in
      Alcotest.(check int) "one stale entry" 1 (stale_count () - before);
      let s = List.map Expr.to_string in
      Alcotest.(check (list string)) "re-mined answer" (s cold) (s again))

let test_cache_stale_config () =
  with_cache_dir (fun dir ->
      let tight = { Daikon.Config.default with min_samples = 500 } in
      let a = Pipeline.mine_invariants ~jobs:1 ~cache_dir:dir ~names () in
      (* Different fingerprint: must not serve the default-config shards. *)
      let b =
        Pipeline.mine_invariants ~config:tight ~jobs:1 ~cache_dir:dir ~names ()
      in
      let c = Pipeline.mine_invariants ~config:tight ~jobs:1 ~names () in
      let s = List.map Expr.to_string in
      Alcotest.(check (list string)) "tight config re-mined, not served stale"
        (s c) (s b);
      Alcotest.(check bool) "the two configs genuinely differ" true
        (s a <> s b))

let test_cache_slash_named_workload () =
  with_cache_dir (fun dir ->
      (* A registered/fuzz workload is free to carry '/' or '..' in its
         name; its shard must cache INSIDE the cache dir (percent-encoded
         filename) and reload from there, never escape. *)
      let base = Option.get (Workloads.Suite.by_name "helloworld") in
      let evil = { base with Workloads.Rt.name = "../escapee/x" } in
      let groups = [ [ evil.Workloads.Rt.name ] ] and labels = [ "evil" ] in
      let mine () =
        Pipeline.mine ~workloads:[ evil ] ~groups ~labels ~jobs:1
          ~cache_dir:dir ()
      in
      let cold = mine () in
      let shard =
        Filename.concat dir
          (Util.Fsname.encode evil.Workloads.Rt.name ^ ".snap")
      in
      Alcotest.(check bool) "shard cached inside the cache dir" true
        (Sys.file_exists shard);
      Alcotest.(check bool) "nothing escaped the cache dir" false
        (Sys.file_exists
           (Filename.concat (Filename.dirname dir) "escapee"));
      let warm = mine () in
      Alcotest.(check (list string)) "warm reload identical"
        (List.map Expr.to_string cold.Pipeline.invariants)
        (List.map Expr.to_string warm.Pipeline.invariants);
      Alcotest.(check int) "records identical"
        cold.Pipeline.record_count warm.Pipeline.record_count)

(* ---- the lake warm cache ----

   mine_lake over a cache directory keys its snapshot on the segment
   BLOCK digests (Segment.block_digests), so a warm hit is provably
   bound to the lake's bytes: byte-identical engine on a hit, and any
   appended or altered block changes the key and re-mines. *)

let summary_hits () =
  Obs.Metrics.counter_value (Obs.Metrics.counter "mine.cache.summary_hit")

let lake_session_digest ?cache_dir dir =
  let s = Pipeline.Session.create ?cache_dir () in
  ignore (Pipeline.Session.mine_lake s dir);
  Pipeline.Session.engine_digest s

let test_lake_cache_warm_equals_cold () =
  with_cache_dir (fun lake ->
      with_cache_dir (fun cache ->
          ignore (Pipeline.record_lake ~names ~dir:lake ());
          let reference = lake_session_digest lake in
          let cold = Pipeline.mine_lake ~cache_dir:cache lake in
          let hits = summary_hits () in
          let warm = Pipeline.mine_lake ~cache_dir:cache lake in
          Alcotest.(check int) "warm run hit the summary cache"
            (hits + 1) (summary_hits ());
          let s = List.map Expr.to_string in
          Alcotest.(check (list string)) "invariants"
            (s cold.Pipeline.invariants) (s warm.Pipeline.invariants);
          Alcotest.(check bool) "figure3 rows identical" true
            (cold.Pipeline.figure3 = warm.Pipeline.figure3);
          Alcotest.(check int) "records"
            cold.Pipeline.record_count warm.Pipeline.record_count;
          Alcotest.(check int) "trace bytes"
            cold.Pipeline.trace_bytes warm.Pipeline.trace_bytes;
          Alcotest.(check string) "warm engine bytes == uncached sequential"
            reference (lake_session_digest ~cache_dir:cache lake)))

let test_lake_cache_append_invalidates () =
  with_cache_dir (fun lake ->
      with_cache_dir (fun cache ->
          let s1 = Pipeline.record_lake ~names ~dir:lake () in
          let cold = Pipeline.mine_lake ~cache_dir:cache lake in
          (* Appending to the lake changes the block digests: the stale
             snapshot must not be served. *)
          ignore (Pipeline.record_lake ~names ~dir:lake ());
          let grown = Pipeline.mine_lake ~cache_dir:cache lake in
          Alcotest.(check int) "appended records mined, not stale-served"
            (cold.Pipeline.record_count + s1.Pipeline.lake_records)
            grown.Pipeline.record_count;
          Alcotest.(check string) "grown engine == uncached over grown lake"
            (lake_session_digest lake)
            (lake_session_digest ~cache_dir:cache lake)))

(* ---- the result entry: one format, pinned ----

   A whole mining result is cached as [mine-<key16>.summary] (magic
   SCIFMINE: the Figure 3 rows and the trace bytes) beside
   [mine-<key16>.snap] (its engine). The decoder is private to the
   pipeline, so these tests reach it the way a run does: through the
   cache directory, where a hostile or retired entry must read as a miss
   and the run must still return the right answer. *)

let summary_misses () =
  Obs.Metrics.counter_value (Obs.Metrics.counter "mine.cache.summary_miss")

(* The one result entry a cold run left in [dir]. *)
let result_entry dir =
  match
    List.filter
      (fun f -> Filename.check_suffix f ".summary")
      (Array.to_list (Sys.readdir dir))
  with
  | [ f ] -> Filename.concat dir f
  | l -> Alcotest.failf "expected one result entry, found %d" (List.length l)

let check_same_answer msg (a : Pipeline.mining) (b : Pipeline.mining) =
  Alcotest.(check (list string)) (msg ^ ": invariants")
    (List.map Expr.to_string a.invariants)
    (List.map Expr.to_string b.invariants);
  Alcotest.(check bool) (msg ^ ": figure3 rows") true (a.figure3 = b.figure3);
  Alcotest.(check int) (msg ^ ": records") a.record_count b.record_count;
  Alcotest.(check int) (msg ^ ": trace bytes") a.trace_bytes b.trace_bytes;
  Alcotest.(check (list string)) (msg ^ ": coverage")
    a.mnemonic_coverage b.mnemonic_coverage

(* Prologue and exit only: a re-mine costs milliseconds, so the
   property below can afford a whole run per hostile input. *)
let tiny =
  Workloads.Rt.build ~name:"tiny"
    (Workloads.Rt.prologue @ Workloads.Rt.exit_program)

let mine_tiny dir =
  Pipeline.mine ~workloads:[ tiny ] ~groups:[ [ "tiny" ] ] ~labels:[ "tiny" ]
    ~jobs:1 ~cache_dir:dir ()

(* Random bytes, a strict prefix of a valid entry, or a valid entry
   with one bit flipped. *)
let hostile_entry valid =
  let n = String.length valid in
  QCheck.Gen.(
    oneof
      [ string_size ~gen:char (0 -- (2 * n));
        map (fun k -> String.sub valid 0 k) (0 -- (n - 1));
        map
          (fun bit ->
             let b = Bytes.of_string valid in
             let i = bit / 8 in
             Bytes.set b i
               (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
             Bytes.to_string b)
          (0 -- ((8 * n) - 1)) ])

let test_hostile_result_entry () =
  with_cache_dir (fun dir ->
      let reference = mine_tiny dir in
      let entry = result_entry dir in
      let valid = Util.Binio.read_file entry in
      (* Each input decodes to a miss — counted as one, never raised —
         and the run re-mines to the reference answer. *)
      let misses_cleanly data =
        write_file entry data;
        let hits = summary_hits () and misses = summary_misses () in
        let m = mine_tiny dir in
        summary_hits () = hits
        && summary_misses () = misses + 1
        && List.map Expr.to_string m.Pipeline.invariants
           = List.map Expr.to_string reference.Pipeline.invariants
        && m.Pipeline.figure3 = reference.Pipeline.figure3
        && m.Pipeline.trace_bytes = reference.Pipeline.trace_bytes
      in
      for k = 0 to String.length valid - 1 do
        if not (misses_cleanly (String.sub valid 0 k)) then
          Alcotest.failf "strict prefix of %d bytes was not a clean miss" k
      done;
      QCheck.Test.check_exn
        (QCheck.Test.make ~count:300 ~name:"hostile result entry is a miss"
           (QCheck.make ~print:String.escaped (hostile_entry valid))
           misses_cleanly))

(* [test/golden/pi-helloworld.summary] is the result entry of a cold
   [mine] of pi then helloworld. Its key digests the engine codec
   version, the default config and both program images, so a change to
   any of them must come with a fresh golden: copy the entry a cold run
   of [mine_pair] writes. *)
let golden_path = "golden/pi-helloworld.summary"

let mine_pair dir =
  Pipeline.mine ~jobs:1 ~groups:[ [ "pi" ]; [ "helloworld" ] ]
    ~labels:[ "pi"; "helloworld" ] ~cache_dir:dir ()

let test_golden_result_entry () =
  with_cache_dir (fun cold_dir ->
      with_cache_dir (fun warm_dir ->
          let golden = Util.Binio.read_file golden_path in
          let cold = mine_pair cold_dir in
          let entry = result_entry cold_dir in
          (* Encoding is pinned: a cold run writes the golden bytes. *)
          Alcotest.(check string) "cold entry == golden bytes"
            (Digest.to_hex (Digest.string golden))
            (Digest.to_hex (Digest.string (Util.Binio.read_file entry)));
          (* Decoding is pinned: the golden entry, beside the engine it
             names, answers a warm run exactly as the cold run did. *)
          let warm_entry = Filename.concat warm_dir (Filename.basename entry) in
          let snap = Filename.chop_suffix entry ".summary" ^ ".snap" in
          write_file warm_entry golden;
          write_file
            (Filename.concat warm_dir (Filename.basename snap))
            (Util.Binio.read_file snap);
          let hits = summary_hits () in
          check_same_answer "golden decodes to the cold answer" cold
            (mine_pair warm_dir);
          Alcotest.(check int) "golden entry hit" (hits + 1) (summary_hits ());
          (* An entry in a retired format is a miss, never an error: the
             run re-mines to the same answer and rewrites the entry. *)
          List.iter
            (fun retired ->
               write_file warm_entry
                 (retired
                  ^ String.sub golden 8 (String.length golden - 8));
               let misses = summary_misses () in
               check_same_answer (retired ^ " re-mined") cold
                 (mine_pair warm_dir);
               Alcotest.(check int) (retired ^ " is a miss") (misses + 1)
                 (summary_misses ());
               Alcotest.(check bool) (retired ^ " entry rewritten") true
                 (String.equal golden (Util.Binio.read_file warm_entry)))
            [ "SCIFSUMM"; "SCIFLAKE" ]))

let () =
  Alcotest.run "snapshot"
    [ ("engine",
       [ Alcotest.test_case "roundtrip" `Quick test_roundtrip;
         Alcotest.test_case "canonical bytes" `Quick test_roundtrip_is_canonical;
         Alcotest.test_case "continued observation" `Quick
           test_continued_observation;
         Alcotest.test_case "merge after load" `Quick test_merge_after_load;
         Alcotest.test_case "save/load file" `Quick test_save_load_file;
         Alcotest.test_case "corrupt rejected" `Quick test_corrupt;
         Alcotest.test_case "stale rejected" `Quick test_stale;
         Alcotest.test_case "pair state out of range" `Quick
           test_pair_out_of_range ]);
      ("pipeline cache",
       [ Alcotest.test_case "warm equals cold" `Quick test_cache_warm_equals_cold;
         Alcotest.test_case "full mine summary" `Quick test_cache_full_mine;
         Alcotest.test_case "damage re-mined" `Quick test_cache_rejects_damage;
         Alcotest.test_case "hostile pair entry is stale" `Quick
           test_cache_hostile_pair_is_stale;
         Alcotest.test_case "config fingerprint" `Quick test_cache_stale_config;
         Alcotest.test_case "slash-named workload contained" `Quick
           test_cache_slash_named_workload ]);
      ("lake cache",
       [ Alcotest.test_case "warm equals cold (digest-keyed)" `Quick
           test_lake_cache_warm_equals_cold;
         Alcotest.test_case "append invalidates" `Quick
           test_lake_cache_append_invalidates ]);
      ("result entry",
       [ Alcotest.test_case "hostile input is a miss" `Quick
           test_hostile_result_entry;
         Alcotest.test_case "golden entry and retired magics" `Quick
           test_golden_result_entry ]) ]
