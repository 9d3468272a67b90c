(** One client session: a {!Scifinder_core.Pipeline.Session} plus
    idle-eviction bookkeeping, and the executor mapping protocol
    requests onto it. *)

type t

val create : ?cache_dir:string -> mine_jobs:int -> string -> t
(** [create name] — [mine_jobs]/[cache_dir] follow the
    {!Scifinder_core.Pipeline.Session.create} rules ([mine_jobs = 1]
    with no cache is the byte-identity reference configuration).
    [mine_jobs] also shards lake replays ([Proto.Lake] mines) into
    byte-balanced block spans; the merged engine — and the digest the
    response reports — is byte-identical to a sequential replay — and
    is the [jobs] of a [Proto.Campaign] request, whose answer is the
    same at any [jobs]. *)

val name : t -> string
val records : t -> int
val sources : t -> int

val touch : t -> unit
val last_active : t -> float
(** Monotonic seconds ({!Obs.Clock.now_s}) of the last {!touch} — the
    idle-eviction clock. {!execute} touches the session when the job
    starts and again when it finishes, so the clock measures the
    client's silence, not the job's run time. *)

val pipeline_session : t -> Scifinder_core.Pipeline.Session.t

val execute : t -> id:int -> Proto.request -> Proto.response
(** Run one job request against the session. Total: failures (unknown
    workloads, parse errors, corrupt segments, I/O) come back as
    [Proto.Failed]. Must only run one-at-a-time per session — the
    {!Scheduler} guarantees that. Control requests ([Status] / [Cancel]
    / [Shutdown]) are not executable here. *)
