(* In-memory spans for the benchmark's traced run.

   Spans are recorded around calls into the library's public layers,
   kept in memory, and written out once at exit in the Obs JSONL schema
   ({!Obs.Sink.json_of_event}), so [scifinder report FILE] renders the
   self-time tree with no new reader. The library's own telemetry sink
   stays null throughout, so library code runs exactly as it does
   untraced.

   Each span also records the minor-heap words allocated on its domain
   while it was open. Calls too short and too many for a span each
   (one engine observation per record) are timed individually and
   folded into one aggregate span per enclosing span, whose [calls]
   attribute says how many calls it stands for. *)

external now_ns : unit -> (int[@untagged])
  = "perfbench_now_ns_byte" "perfbench_now_ns"
[@@noalloc]

(* Words allocated on the calling domain's minor heap so far. *)
let minor_words () = int_of_float (Gc.minor_words ())

type span = {
  name : string;
  parent : string option;
  domain : int;
  start_ns : int;
  dur_ns : int;
  words : int;
  calls : int;
  attrs : (string * Obs.Sink.value) list;
}

(* Per-name totals since the last [reset]: the raw material of the
   per-layer ledger. *)
type total = {
  mutable ns : int;
  mutable twords : int;
  mutable tcalls : int;
  mutable spans : int;
  mutable max_ns : int;
}

let lock = Mutex.create ()
let recorded : span list ref = ref []
let totals : (string, total) Hashtbl.t = Hashtbl.create 32
let main_domain = ref 0

(* Minor words allocated by tasks on domains other than the one that
   called [reset]: an operation's allocation is its own span's words
   plus these. *)
let worker_words = Atomic.make 0

let reset () =
  Mutex.protect lock (fun () -> Hashtbl.reset totals);
  Atomic.set worker_words 0;
  main_domain := (Domain.self () :> int)

let record s =
  Mutex.protect lock (fun () ->
      recorded := s :: !recorded;
      let t =
        match Hashtbl.find_opt totals s.name with
        | Some t -> t
        | None ->
          let t = { ns = 0; twords = 0; tcalls = 0; spans = 0; max_ns = 0 } in
          Hashtbl.add totals s.name t;
          t
      in
      t.ns <- t.ns + s.dur_ns;
      t.twords <- t.twords + s.words;
      t.tcalls <- t.tcalls + s.calls;
      t.spans <- t.spans + 1;
      if s.dur_ns > t.max_ns then t.max_ns <- s.dur_ns)

let total name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt totals name with
      | Some t -> { t with ns = t.ns }
      | None -> { ns = 0; twords = 0; tcalls = 0; spans = 0; max_ns = 0 })

let stack_key : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let context_key : string option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () =
  match !(Domain.DLS.get stack_key) with
  | name :: _ -> Some name
  | [] -> !(Domain.DLS.get context_key)

(* Run a task handed to another domain (a [Util.Parallel.map] task, a
   scheduler job) under the submitting span [parent], counting its
   allocation toward the operation when it runs off the main domain. *)
let on_worker parent f =
  let cell = Domain.DLS.get context_key in
  let saved = !cell in
  cell := parent;
  let w0 = minor_words () in
  Fun.protect
    ~finally:(fun () ->
        cell := saved;
        if (Domain.self () :> int) <> !main_domain then
          ignore (Atomic.fetch_and_add worker_words (minor_words () - w0)))
    f

let with_ ?(attrs = []) name f =
  let stack = Domain.DLS.get stack_key in
  let parent = current () in
  stack := name :: !stack;
  let w0 = minor_words () in
  let t0 = now_ns () in
  let finish () =
    let dur_ns = now_ns () - t0 in
    let words = minor_words () - w0 in
    (match !stack with _ :: rest -> stack := rest | [] -> ());
    record
      { name; parent; domain = (Domain.self () :> int); start_ns = t0;
        dur_ns; words; calls = 1; attrs }
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* ---- Aggregates: one span standing for many timed calls ---- *)

type agg = {
  aname : string;
  astart : int;
  mutable ans : int;
  mutable awords : int;
  mutable acalls : int;
}

let agg name = { aname = name; astart = now_ns (); ans = 0; awords = 0; acalls = 0 }

(* Fold one call measured by the caller. Allocation-free, for the
   per-record paths. *)
let add a ~ns ~words =
  a.ans <- a.ans + ns;
  a.awords <- a.awords + words;
  a.acalls <- a.acalls + 1

let timed a f =
  let w0 = minor_words () in
  let t0 = now_ns () in
  let v = f () in
  add a ~ns:(now_ns () - t0) ~words:(minor_words () - w0);
  v

(* Record the aggregate as a child of the innermost open span. *)
let close_agg a =
  if a.acalls > 0 then
    record
      { name = a.aname; parent = current (); domain = (Domain.self () :> int);
        start_ns = a.astart; dur_ns = a.ans; words = a.awords;
        calls = a.acalls; attrs = [] }

(* ---- Output ---- *)

let write_jsonl path ~metrics =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
       List.iter
         (fun s ->
            let ev =
              Obs.Sink.Span
                { name = s.name; parent = s.parent; domain = s.domain;
                  start_ns = Int64.of_int s.start_ns;
                  dur_ns = Int64.of_int s.dur_ns;
                  attrs =
                    s.attrs
                    @ [ ("minor_words", Obs.Sink.I s.words);
                        ("calls", Obs.Sink.I s.calls) ] }
            in
            output_string oc (Obs.Sink.json_of_event ev);
            output_char oc '\n')
         (List.rev !recorded);
       List.iter
         (fun (name, unit, value) ->
            let ev =
              Obs.Sink.Metric
                { name; kind = "gauge"; value;
                  attrs = [ ("unit", Obs.Sink.S unit) ] }
            in
            output_string oc (Obs.Sink.json_of_event ev);
            output_char oc '\n')
         metrics)
